"""Golden SHA-256 hashes of the six figure presets, each run with
`--engine closed`, `--engine exact` and `--engine both`, of four nbar
400 sweeps at cutoff 627, and of the `validate` report.

Every refactor or performance change must keep these bytes identical.
A version bump (the provenance header carries the version) or a
deliberate change of the printed bytes must regenerate the hashes below
and justify the new bytes in CHANGES.md.  The closed and both hashes of
1a and 1b, the cutoff-627 and saturated-tail simulate-both hashes and
the two edge simulate hashes were regenerated when the saturated tail
came to be summed in closed form: fewer cells in each pairwise sum moved
last digits only.  The 3a and 3b both hashes were regenerated when the
teleport columns came to be computed by the affine branch map: only
max_dev, a difference of rounding noise, moved (by at most 1.2e-15).
The two cutoff-627 hashes were regenerated when the kernel came to read
one coefficient table K, which folds a2 and a3 into the weights before
the Rabi functions multiply them: last digits of 269 of 13,846 simulate
cells and 6 of 16,856 teleport cells moved (by at most 1.0e-12, one unit
in the twelfth digit).  The validate hash was regenerated when one
agreement check of closed_form_bob, the map and the circuit replaced the
two-convention vote and total_weight came to sum the populations: only
the bob-convention and amplitude-normalization lines moved.
"""

import hashlib

import pytest

from qdcavity import cli

GOLDEN = {
    ("1a", "closed"): "966c9d985029a786d7194aff123c272ae1e486d03835a6b65b055dfd3c107761",
    ("1a", "both"): "5ccf17938705aa86e1dfa153fce0cd2355bd8a804a8d8bfc1da8407d5498dc75",
    ("1b", "closed"): "2026ef05d4b2e9a6ff2f91728b1881114f4db0a32bf08e2844de89859925f95d",
    ("1b", "both"): "ec2792343364f29859ef43d2507256cb85d422073817f44986205a633c9a21b5",
    ("2a", "closed"): "19fadd582cdb873525a82eba983a2a3a74b3ebf6afb4f778d45999fa6fed0b8e",
    ("2a", "both"): "0ef6c042e46e83e4328c889d676d6aa7b9a493f23699db74661dc4c9535d9de4",
    ("2b", "closed"): "5d66a33690174a5d9ac4fe1f8b9adf4049db621551091a0841f4a328a06af949",
    ("2b", "both"): "33c9c047aaa1655c2d7b117e1c6a9142c9a589aaf4c3d4ea0f1f3b566d010c2d",
    ("3a", "closed"): "24c670d561271334db2922447587c0a6b6709d8850029e417179e961c264fc25",
    ("3a", "both"): "b811807294fb26bace3c35b4c0e80fe98567a368e1d701b267128eba792b3c06",
    ("3b", "closed"): "060e5c3e474f8297b71eacef5ea7a4b9cca16537e636879fa38c98212d5fae6e",
    ("3b", "both"): "da3791993a588ae5d73ac568cbd076a785072abc10806e6c8199205b82096ba1",
    ("1a", "exact"): "3afa60c817c7ae1acd43c0f77e2e18e1b6379dc33a1c27008679fb8d3572793a",
    ("1b", "exact"): "44d6ce0b1af18c5c40e8633e9bdde26474a796edad0fd791e102cf7acdc86568",
    ("2a", "exact"): "7da3293211cf3402cdc70710e4a89a2874ddaab554daadbd1f1a0bb1540532dc",
    ("2b", "exact"): "064af7e04383e14c18470544866de8d54c01b3bb887538e3f2ef97fc966f18ef",
    ("3a", "exact"): "986e6426cb657c8c823d09b79bbe1a08dc413312df89d79ea3ef42b3f0fbd527",
    ("3b", "exact"): "a117b1ab3d78119ba79911ffad0e122ad0fedfb854f6c358ba27f718fc1de500",
}

VALIDATE_GOLDEN = "812f7634b1e22ba806de2d518f3922214e2e372a4de3d304483c0619c18ca654"

# Cutoff 627 (nbar 400): six times per kernel chunk, and 301 steps leave a
# last block of 45 times that ends inside a chunk.
GOLDEN_627_ARGS = ["--nbar", "400", "--steps", "301", "--q", "0.9", "--q",
                   "0.5", "--atoms=0.6+0.2i,0.1-0.3i,-0.3+0.5i,0+0.4i"]
GOLDEN_627 = {
    ("simulate", "both"): "1ac02ac9098494401504883e04877e3d4691fd929238c0f32b518a9d1cb804a5",
    ("teleport", "closed"): "f8373b270f8912d589083319ebf82452c548b45bbedd46785280ca0edf06a22c",
}


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


@pytest.mark.parametrize("command,engine", sorted(GOLDEN_627),
                         ids=[f"{c}-{e}" for c, e in sorted(GOLDEN_627)])
def test_cutoff_627_bytes_match_golden_hash(command, engine, tmp_path):
    path = tmp_path / f"{command}-{engine}.csv"
    assert cli.main([command, "--engine", engine, *GOLDEN_627_ARGS,
                     "--out", str(path)]) == 0
    assert "# cutoff=627" in path.read_text()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_627[(command, engine)]


# Cutoff 627 at q = 0.1 and 0.945: the Rabi rates saturate from column
# 18 on at q = 0.1 (a 609-column tail of one rate) and from column 623 on
# at q = 0.945 (a 4-column tail).  Recorded before the kernel used this.
GOLDEN_TAIL_ARGS = ["--nbar", "400", "--steps", "301", "--q", "0.1", "--q",
                    "0.945"]
GOLDEN_TAIL = {
    ("simulate", "both"): "1d74b22fbc3fa26e112eca020be0588004f957e5ff74d9f4cf173e316ec7c636",
    ("teleport", "closed"): "6d27da249b4bf8ef80e53d09974c9dce0be6ae663a0401c30358e37a54d041ad",
}


@pytest.mark.parametrize("command,engine", sorted(GOLDEN_TAIL),
                         ids=[f"{c}-{e}" for c, e in sorted(GOLDEN_TAIL)])
def test_saturated_tail_bytes_match_golden_hash(command, engine, tmp_path):
    path = tmp_path / f"{command}-{engine}.csv"
    assert cli.main([command, "--engine", engine, *GOLDEN_TAIL_ARGS,
                     "--out", str(path)]) == 0
    assert "# cutoff=627" in path.read_text()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_TAIL[(command, engine)]


# Inputs the closed kernel's frozen-manifold and reduction paths meet
# that no preset covers: m = 3 leaves 6 frozen columns, q = 0 saturates
# the ladder and q = 1 is the undeformed limit.
GOLDEN_EDGE = {
    ("simulate", "closed"): "5ee4746f3a97d704a822ca3aea84e78b618334859b3aa3d782c301384e49ae56",
    ("simulate", "both"): "a38f84abfaf2d81f543d5c87fbf0809e620ed5c2cf4cbc9757873dc98b5dff9e",
    ("teleport", "closed"): "61c27c620a4272299aa4288715500308676287a7b317deb05ed4cf828b6cfd4b",
}
GOLDEN_EDGE_ARGS = {
    "simulate": ["--m", "3", "--q", "0", "--q", "1", "--nbar", "10",
                 "--steps", "301"],
    "teleport": ["--m", "3", "--q", "0", "--nbar", "10"],
}


@pytest.mark.parametrize("command,engine", sorted(GOLDEN_EDGE),
                         ids=[f"{c}-{e}" for c, e in sorted(GOLDEN_EDGE)])
def test_edge_inputs_match_golden_hash(command, engine, tmp_path):
    path = tmp_path / f"{command}-{engine}.csv"
    assert cli.main([command, "--engine", engine, *GOLDEN_EDGE_ARGS[command],
                     "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_EDGE[(command, engine)]
