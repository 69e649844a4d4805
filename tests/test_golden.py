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
    ("1a", "closed"): "b4144c70c71a944fa1049e44714ea5526238e97b1349fd7a654426f053aa4eef",
    ("1a", "both"): "2047157bb30055ed438cd3f3efdb834624ad43e1a5cc1ad965dfcaf36e56ac7d",
    ("1b", "closed"): "5c512f4f17d76f39c2fe69ec7c1f9c376931923028482d468f3a970529e28e9d",
    ("1b", "both"): "1f1c7545a8b57093958f10fe9a054d6932d64605b55fc394138eddc90d097c65",
    ("2a", "closed"): "19fadd582cdb873525a82eba983a2a3a74b3ebf6afb4f778d45999fa6fed0b8e",
    ("2a", "both"): "0ef6c042e46e83e4328c889d676d6aa7b9a493f23699db74661dc4c9535d9de4",
    ("2b", "closed"): "5d66a33690174a5d9ac4fe1f8b9adf4049db621551091a0841f4a328a06af949",
    ("2b", "both"): "33c9c047aaa1655c2d7b117e1c6a9142c9a589aaf4c3d4ea0f1f3b566d010c2d",
    ("3a", "closed"): "8bb0c9b10a35260e3038e58c95df23ba48aca500d7eafb1a1718a8c931699793",
    ("3a", "both"): "85909231001b856b86b92f794950a93b0d9e961f4da44229ce62bd6d13ef8dde",
    ("3b", "closed"): "8789462f4fab6cd6369f98ac506f0369f32aa181f3538d2647f56617b07a81fd",
    ("3b", "both"): "4552b84ca8a2be9871532e9206af14c6327905ee6df1172a5642dfebd2a94fef",
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
