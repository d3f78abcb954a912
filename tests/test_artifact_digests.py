"""Every --deterministic artifact of a fixed command set, pinned by sha256.

The commands run in process from a temporary directory with relative paths,
so the config digests in the artifact headers do not depend on where the
test runs. The digests hold for the numpy and scipy versions named below;
another version may move the last bits of a score. The failure message names
the artifacts whose digest moved, then prints the table to pin after
checking that the change is expected.
"""

import hashlib

from markerscreen.cli import main

PINNED_WITH = "numpy 2.4.6, scipy 1.17.1"

COMMANDS = [
    "simulate --preset water-n10 --seed 8 --out-dir sim10",
    "simulate --preset water-n3 --seed 8 --out-dir sim3",
    "select --input sim10/matrix.csv --policy gap --out-dir sel10-gap",
    "select --input sim10/matrix.csv --policy bh:0.1 --out-dir sel10-bh",
    "select --input sim3/matrix.csv --policy gap --out-dir sel3-gap",
    "calibrate --n 3,10 --replicates 2000 --out-dir cal",
    "bench --methods lr+gap,ks+gap,ttest+bh:0.1 --presets water-n10,water-n3 "
    "--runs 2 --replicates 1000 --out-dir bench",
]

DIGESTS = {
    'bench/bench_runs.csv': '1fa88239ca3ede2040601b9009ef2c6451971d4bb520707226f9c6335604d965',
    'bench/bench_summary.csv': '8e2c261e295787e93c58c388cfa887350e4d7cabf28bd9b4bf3bd5509b7a4835',
    'cal/calibration.csv': '8aa1f3cf4f3598184d82c434ff2e22244b454e1e8af6a5daca8cdf89bfb030f6',
    'sel10-bh/preview.csv': '943a77d05237432fd66c0250de9d8aacd620a3cea51f65c1f478f0b7abf2fa29',
    'sel10-bh/scores.csv': '1a8dfb518053f8fcb0af5f8f08b60888d6b5fb1890eab89b07ac8c174b282d16',
    'sel10-bh/selection.csv': '79c78974225c064cf8665387a4d9ebb3103a38cf97f450117c70c705e3711a7d',
    'sel10-gap/preview.csv': '686074be4edeff73e93835167ea6a9716326df45fac52693c06e66a174659cf8',
    'sel10-gap/scores.csv': '280aaaa7201ac5231ad0a569c3a8ce088511dfc4bfc285f9739730e7f60a5e2b',
    'sel10-gap/selection.csv': 'b4a474dd45b2b948b6e0f5432d4a492a307a30a507f124cb86034a3e759d8032',
    'sel3-gap/preview.csv': '4ff1d2be1a0ed4226b02e8328a23982f4603f2bb2cfa084ed88932d558e9b41d',
    'sel3-gap/scores.csv': 'ef67ecaaa14ac0476fc42e6d7d1552182274edd8565db1f359d33063e66d7f56',
    'sel3-gap/selection.csv': '785b802127eed42736499f201a51f5671e211988bec6c2feb03528fc31b2d353',
    'sim10/matrix.csv': '82e7d2e3c08aef25bde0566d0a3ca4c2647cc33f1fab59f07536ebfeecc81882',
    'sim10/truth.csv': '70deb9fd65988a06b9ebd7844f40ba04b45de7475e9a2b5539ca30c8c4998c64',
    'sim3/matrix.csv': 'e637709ad8cd81edd1c6fe3dff485900e2a399563fbfba69f7ad65c1915288db',
    'sim3/truth.csv': '6cc167cf771446c389bf087e2b838221101df624e3987f082b325996db845e3f',
}


def test_deterministic_artifacts_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command in COMMANDS:
        assert main(command.split() + ["--deterministic"]) == 0, command
    capsys.readouterr()
    found = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(tmp_path.rglob("*.csv"))}
    moved = sorted(name for name in found.keys() | DIGESTS.keys()
                   if found.get(name) != DIGESTS.get(name))
    table = "".join(f"    {name!r}: {digest!r},\n" for name, digest in found.items())
    assert not moved, (
        f"artifact bytes differ from the table pinned with {PINNED_WITH} in: "
        f"{', '.join(moved)}; if the change is expected, pin:\nDIGESTS = {{\n{table}}}"
    )
