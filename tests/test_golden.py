"""Golden SHA-256 hashes of the six figure presets, each run with
`--engine closed` and with `--engine both`, and of the `validate` report.

Every refactor or performance change must keep these bytes identical.
A version bump (the provenance header carries the version) or a
deliberate change of the printed bytes must regenerate the hashes below
and justify the new bytes in CHANGES.md.
"""

import hashlib

import pytest

from qdcavity import cli

GOLDEN = {
    ("1a", "closed"): "47a60b56f74778760c4c2003fd6fa84104a79c269498a6b49036364f7f635e08",
    ("1a", "both"): "48e831886fa3333996c9f519067f3423a3e21ea95c030751c8c4c53471872c40",
    ("1b", "closed"): "c2da4030b31b47153068b00f5a1cd49a64b35835ba9755c74a84e083c003fca6",
    ("1b", "both"): "46051e7a14ce4b224674ccc80811a63725391ce862c1fcc845c78ac2dd3b43fb",
    ("2a", "closed"): "38c804517a3fc111592a1c66f36eb569f4517fd84adeca9c7c8adbddb2e0da3b",
    ("2a", "both"): "ea2778faa8b5cef1d0e74ee48fc1b3e332b1146f353ccc8c80620ffdfca9d729",
    ("2b", "closed"): "2b43f54bb7de47b88e3d23cd20e2fe2b3b2c454e8bf0d43c21b4b830a0bc0e3c",
    ("2b", "both"): "ef302ecbcb0acebf3c200a2e394648e564af030d5590f9904c6ea23f89e5f778",
    ("3a", "closed"): "8bb0c9b10a35260e3038e58c95df23ba48aca500d7eafb1a1718a8c931699793",
    ("3a", "both"): "080ddb14c91f2cd725163bbfb35683899a0351e85fb69bc869e365ac92a56b86",
    ("3b", "closed"): "8789462f4fab6cd6369f98ac506f0369f32aa181f3538d2647f56617b07a81fd",
    ("3b", "both"): "5c4b7f11788cd64fdf8403e57165322872b0c2cd0642d7b3023979cca71465d1",
}

VALIDATE_GOLDEN = "c6578bcf99a2834302436330f499d49f51b3d4ec0116fd12ddcd05fee6e437d9"


@pytest.mark.parametrize("fig,engine", sorted(GOLDEN),
                         ids=[f"{f}-{e}" for f, e in sorted(GOLDEN)])
def test_preset_bytes_match_golden_hash(fig, engine, tmp_path):
    command = cli.FIG_PRESETS[fig]["command"]
    path = tmp_path / f"fig{fig}-{engine}.csv"
    assert cli.main([command, "--fig", fig, "--engine", engine,
                     "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN[(fig, engine)]


def test_validate_report_matches_golden_hash(capsys):
    assert cli.main(["validate"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VALIDATE_GOLDEN
