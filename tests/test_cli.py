import math
import os

import numpy as np
import pytest

import markerscreen as ms
from markerscreen.cli import COMMANDS, build_parser, config_digest, main, parse_config
from markerscreen.matrix_io import ingest_matrix, read_truth

from _scoring import lr_row


def run_cli(*args):
    return main(list(args))


def _read_selection_ids(path):
    ids = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == "protein_id":
                continue
            ids.append(line)
    return ids


# ---------------------------------------------------------------- round trip

def test_simulate_then_ingest_round_trip(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--preset", "water-n10", "--seed", "8",
                   "--out-dir", str(out), "--deterministic") == 0
    matrix = ingest_matrix(str(out / "matrix.csv"))
    lab = ms.generate(ms.preset("water-n10", seed=8))
    assert np.array_equal(matrix.values, lab.matrix.values)
    assert np.array_equal(matrix.layout, lab.matrix.layout)
    truth = read_truth(str(out / "truth.csv"))
    assert sum(truth.values()) == 30


def test_end_to_end_marker_recovery(tmp_path):
    sim = tmp_path / "sim"
    sel = tmp_path / "sel"
    run_cli("simulate", "--preset", "water-n10", "--seed", "8",
            "--out-dir", str(sim), "--deterministic")
    assert run_cli("select", "--input", str(sim / "matrix.csv"),
                   "--policy", "gap", "--out-dir", str(sel),
                   "--deterministic") == 0
    ids = _read_selection_ids(sel / "selection.csv")
    assert 28 <= len(ids) <= 32
    truth = read_truth(str(sim / "truth.csv"))
    true_hits = sum(truth[i] for i in ids)
    assert true_hits >= 25
    for name in ("scores.csv", "selection.csv", "preview.csv"):
        assert (sel / name).exists()


def test_score_single_protein_matches_library(tmp_path):
    rng = np.random.default_rng(20)
    x = np.concatenate([rng.normal(0, 1, 5), rng.normal(3, 1, 5)])
    src = tmp_path / "one.csv"
    cols = ",".join(f"s{i}" for i in range(10))
    src.write_text("# layout: " + ",".join(["1"] * 5 + ["2"] * 5) + "\n"
                   + f"protein_id,{cols}\n"
                   + "PROT1," + ",".join(repr(float(v)) for v in x) + "\n")
    out = tmp_path / "scored"
    assert run_cli("score", "--input", str(src), "--out-dir", str(out)) == 0
    ref = lr_row(x, 5, 5)
    with open(out / "scores.csv") as fh:
        rows = [l.strip().split(",") for l in fh
                if not l.startswith("#") and l.strip()]
    assert rows[0] == ["protein_id", "statistic_kind", "value", "p_value"]
    pid, kind, value, pval = rows[1]
    assert pid == "PROT1" and kind == "deviance_lr"
    assert float(value) == pytest.approx(ref.value, abs=1e-12)
    assert float(pval) == pytest.approx(ref.p_value, abs=1e-15)


# ------------------------------------------------------------- reproducibility

def test_reruns_are_byte_identical(tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--preset", "water-n3", "--seed", "4",
            "--out-dir", str(sim), "--deterministic")
    first = (sim / "matrix.csv").read_bytes()
    run_cli("simulate", "--preset", "water-n3", "--seed", "4",
            "--out-dir", str(sim), "--deterministic")
    assert (sim / "matrix.csv").read_bytes() == first

    sel = tmp_path / "sel"
    args = ("select", "--input", str(sim / "matrix.csv"), "--policy",
            "bh:0.1", "--replicates", "2000", "--out-dir", str(sel),
            "--deterministic")
    run_cli(*args)
    snapshots = {n: (sel / n).read_bytes()
                 for n in ("scores.csv", "selection.csv", "preview.csv")}
    run_cli(*args)
    for name, blob in snapshots.items():
        assert (sel / name).read_bytes() == blob


def test_artifact_headers_and_config_digest(tmp_path):
    sim = tmp_path / "s1"
    run_cli("simulate", "--preset", "water-n3", "--seed", "4",
            "--out-dir", str(sim), "--deterministic")
    head = (sim / "matrix.csv").read_text().splitlines()[:4]
    assert head[0].startswith("# markerscreen ")
    assert head[1] == "# seed: 4"
    assert head[2].startswith("# config: ")
    digest = head[2].split()[-1]
    assert len(digest) == 12

    sim2 = tmp_path / "s2"
    run_cli("simulate", "--preset", "water-n3", "--seed", "5",
            "--out-dir", str(sim2), "--deterministic")
    digest2 = (sim2 / "matrix.csv").read_text().splitlines()[2].split()[-1]
    assert digest2 != digest  # different config, different fingerprint


def test_same_analysis_in_two_directories_is_byte_identical(tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--preset", "water-n10", "--seed", "8",
            "--out-dir", str(sim), "--deterministic")
    for name in ("a", "b"):
        assert run_cli("select", "--input", str(sim / "matrix.csv"), "--policy",
                       "gap", "--out-dir", str(tmp_path / name),
                       "--deterministic") == 0
    for name in ("scores.csv", "selection.csv", "preview.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_timestamp_suppressed_only_when_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_cli("simulate", "--preset", "water-n3", "--seed", "1",
            "--out-dir", str(a), "--deterministic")
    run_cli("simulate", "--preset", "water-n3", "--seed", "1",
            "--out-dir", str(b))
    assert "# generated:" not in (a / "matrix.csv").read_text()
    assert "# generated:" in (b / "matrix.csv").read_text()


# ----------------------------------------------------------------- commands

def test_calibrate_n10(tmp_path):
    out = tmp_path / "cal"
    assert run_cli("calibrate", "--n", "10", "--alpha", "0.05",
                   "--replicates", "4000", "--out-dir", str(out),
                   "--deterministic") == 0
    with open(out / "calibration.csv") as fh:
        rows = [l.strip().split(",") for l in fh
                if not l.startswith("#") and l.strip()]
    assert rows[0] == ["n", "alpha", "tail_prob", "replicates"]
    tail = float(rows[1][2])
    assert 0.05 <= tail <= 0.11  # anticonservative at n=10, near 0.08


@pytest.mark.parametrize("argv", [
    "--n 3 --replicates 0",
    "--n 3 --alpha 2 --replicates 100",
    "--n , --replicates 100",
    "--n 3 --alpha , --replicates 100",
])
def test_calibrate_rejects_out_of_range_inputs(tmp_path, capsys, argv):
    out = tmp_path / "cal"
    assert run_cli("calibrate", *argv.split(), "--out-dir", str(out)) == 2
    assert "error [input]" in capsys.readouterr().err
    assert not (out / "calibration.csv").exists()


def test_bench_writes_tables(tmp_path):
    out = tmp_path / "bench"
    assert run_cli("bench", "--methods", "ttest+bh:0.05",
                   "--presets", "water-n10", "--runs", "2",
                   "--out-dir", str(out), "--deterministic") == 0
    runs = (out / "bench_runs.csv").read_text()
    summary = (out / "bench_summary.csv").read_text()
    assert runs.count("ttest+bh:0.05") == 2
    assert "sensitivity" in summary.splitlines()[-2] or "sensitivity" in summary


def test_fixed_policy_with_log_ratio_scale(tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--preset", "water-n10", "--seed", "8",
            "--out-dir", str(sim), "--deterministic")
    sel_dev = tmp_path / "dev"
    sel_lnr = tmp_path / "lnr"
    run_cli("select", "--input", str(sim / "matrix.csv"), "--policy",
            "fixed:5.0", "--out-dir", str(sel_dev), "--deterministic")
    run_cli("select", "--input", str(sim / "matrix.csv"), "--policy",
            "fixed:2.5", "--cutoff-scale", "lnR", "--out-dir", str(sel_lnr),
            "--deterministic")
    # half the deviance is the log ratio: cutoff 2.5 there matches 5.0 here
    assert (_read_selection_ids(sel_dev / "selection.csv")
            == _read_selection_ids(sel_lnr / "selection.csv"))


@pytest.fixture(scope="module")
def water10_csv(tmp_path_factory):
    sim = tmp_path_factory.mktemp("sim")
    run_cli("simulate", "--preset", "water-n10", "--seed", "8",
            "--out-dir", str(sim), "--deterministic")
    return str(sim / "matrix.csv")


def test_fixed_policy_with_ratio_scale_moves_the_deviance_cutoff(tmp_path, water10_csv):
    # R = exp(deviance / 2): c on the R scale is the deviance cutoff 2 ln c
    c = 12.0
    for out, policy, scale in ((tmp_path / "r", f"fixed:{c}", "R"),
                               (tmp_path / "dev", f"fixed:{2.0 * math.log(c)!r}", "deviance")):
        assert run_cli("select", "--input", water10_csv, "--policy", policy,
                       "--cutoff-scale", scale, "--out-dir", str(out), "--deterministic") == 0
    ids = _read_selection_ids(tmp_path / "r" / "selection.csv")
    assert ids and ids == _read_selection_ids(tmp_path / "dev" / "selection.csv")
    lines = (tmp_path / "r" / "selection.csv").read_text().splitlines()
    assert "# scale: R" in lines and f"# cutoff: {2.0 * math.log(c)!r}" in lines


@pytest.mark.parametrize("scale", ["lnR", "R"])
@pytest.mark.parametrize("policy", ["gap", "bh:0.1"])
def test_exit_2_on_a_ratio_scale_with_a_rule_other_than_fixed(policy, scale, tmp_path,
                                                              water10_csv, capsys):
    assert run_cli("select", "--input", water10_csv, "--policy", policy, "--cutoff-scale",
                   scale, "--out-dir", str(tmp_path / "o"), "--deterministic") == 2
    assert f"--cutoff-scale {scale} applies only to fixed:<c>" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("c", ["0.5", "1"])
def test_exit_2_on_an_r_cutoff_no_row_can_miss(c, tmp_path, water10_csv, capsys):
    # every row has R >= 1, so c <= 1 on the R scale would select them all
    assert run_cli("select", "--input", water10_csv, "--policy", f"fixed:{c}",
                   "--cutoff-scale", "R", "--out-dir", str(tmp_path / "o")) == 2
    assert "on the R scale needs c > 1" in capsys.readouterr().err


def test_exit_2_on_a_ratio_scale_with_ks(tmp_path, water10_csv, capsys):
    assert run_cli("select", "--input", water10_csv, "--stat", "ks", "--replicates", "1000",
                   "--policy", "fixed:0.3", "--cutoff-scale", "lnR",
                   "--out-dir", str(tmp_path / "o")) == 2
    assert "applies only to fixed:<c> with the lr statistic" in capsys.readouterr().err


def test_gap_fallback_records_small_design_q(tmp_path, capsys):
    sim = tmp_path / "sim"
    run_cli("simulate", "--preset", "water-n3", "--seed", "4",
            "--out-dir", str(sim), "--deterministic")
    sel = tmp_path / "sel"
    assert run_cli("select", "--input", str(sim / "matrix.csv"), "--policy",
                   "gap", "--replicates", "2000", "--out-dir", str(sel),
                   "--deterministic") == 0
    head = [l for l in (sel / "selection.csv").read_text().splitlines()
            if l.startswith("#")]
    assert "# fallback_used: 1" in head
    assert "# fallback_q: 0.1" in head
    assert not any(l.startswith("# scale:") for l in head)  # ks has no deviance scale
    assert "fell back to BH at q = 0.1" in capsys.readouterr().out


def test_plain_bh_records_its_level(tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--preset", "water-n3", "--seed", "4",
            "--out-dir", str(sim), "--deterministic")
    sel = tmp_path / "sel"
    assert run_cli("select", "--input", str(sim / "matrix.csv"), "--policy",
                   "bh", "--replicates", "2000", "--out-dir", str(sel),
                   "--deterministic") == 0
    head = [l for l in (sel / "selection.csv").read_text().splitlines()
            if l.startswith("#")]
    assert "# policy: bh_fdr" in head
    assert "# q: 0.1" in head  # bare bh below n = 5
    assert not any(l.startswith("# fallback_q:") for l in head)


# ------------------------------------------------------------------- flags

@pytest.mark.parametrize("argv", [
    "simulate --stat lr",
    "score --policy gap",
    "score --seed 1",
    "select --preset water-n3",
    "select --seed 1",
    "calibrate --policy fixed:abc",
    "bench --input m.csv",
])
def test_command_rejects_a_flag_it_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2


@pytest.mark.parametrize("command", list(COMMANDS))
def test_unset_flags_parse_to_none(command):
    # defaults live on RunConfig only, so main can tell unset from set
    args = vars(build_parser().parse_args([command]))
    assert args.pop("command") == command
    assert args.pop("deterministic") is False
    assert args and all(v is None for v in args.values())


@pytest.mark.parametrize("argv,digest", [
    ("simulate --preset water-n10 --seed 8", "60f0bb0ae5ec"),
    ("calibrate", "74184670b614"),
    ("bench", "5c09a0c19b3b"),
    ("select --input matrix.csv", "41753708b436"),
])
def test_config_digest_is_pinned(argv, digest):
    # a valid invocation keeps its digest however the parser is built
    assert config_digest(parse_config(argv.split())) == digest


# ---------------------------------------------------------------- exit codes

def test_exit_2_on_bad_cell(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("protein_id,s1,s2,s3,s4\nA,1.0,2.0,NA,4.0\n")
    assert run_cli("score", "--input", str(bad),
                   "--layout", "1,1,2,2", "--out-dir", str(tmp_path)) == 2


@pytest.mark.parametrize("row", [",1,2,3,4", " ,1,2,3,4", '"",1,2,3,4'])
def test_exit_2_on_an_empty_protein_id(tmp_path, capsys, row):
    src = tmp_path / "m.csv"
    src.write_text(f"protein_id,s1,s2,s3,s4\nP1,4,3,2,1\n{row}\n")
    assert run_cli("select", "--input", str(src), "--layout", "1,1,2,2",
                   "--out-dir", str(tmp_path / "o")) == 2
    assert "row 3 has an empty protein id" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_exit_2_on_a_nan_fixed_cutoff(tmp_path, capsys):
    sim = tmp_path / "sim"
    run_cli("simulate", "--preset", "water-n10", "--seed", "8",
            "--out-dir", str(sim), "--deterministic")
    capsys.readouterr()
    assert run_cli("select", "--input", str(sim / "matrix.csv"), "--policy", "fixed:nan",
                   "--out-dir", str(tmp_path / "o"), "--deterministic") == 2
    assert "fixed_cutoff needs c > 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_select_checks_its_policy_before_reading_the_input(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert run_cli("select", "--input", str(missing), "--policy", "bh:",
                   "--out-dir", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "unknown policy 'bh:'" in err and str(missing) not in err
    assert not (tmp_path / "o").exists()


def test_exit_2_on_oversized_csv_field(tmp_path, capsys):
    # csv.reader's field limit (131,072 characters) is a parse error, not a crash
    long_id = "P" * 200_000
    quoted = tmp_path / "quoted.csv"
    quoted.write_text(f'protein_id,a,b,c,d\n"{long_id}",1.0,2.0,9.0,8.0\n')
    assert run_cli("score", "--input", str(quoted), "--layout", "1,1,2,2",
                   "--out-dir", str(tmp_path / "x")) == 2
    assert "error [parse-error]" in capsys.readouterr().err
    plain = tmp_path / "m.csv"
    plain.write_text("protein_id,a,b,c,d\nP1,1.0,2.0,9.0,8.0\nP2,0.5,0.4,0.6,0.7\n")
    sidecar = tmp_path / "layout.csv"
    sidecar.write_text(f'sample_id,condition\n"{long_id}",1\na,1\nb,1\nc,2\nd,2\n')
    assert run_cli("score", "--input", str(plain), "--layout", str(sidecar),
                   "--out-dir", str(tmp_path / "y")) == 2
    assert "error [parse-error]" in capsys.readouterr().err


def test_exit_2_on_a_cell_too_large_to_score(tmp_path, capsys):
    # a finite 1e200 overflows the row variance, so lr and ks both score it NaN
    sim = tmp_path / "sim"
    run_cli("simulate", "--preset", "water-n10", "--seed", "8",
            "--out-dir", str(sim), "--deterministic")
    lines = (sim / "matrix.csv").read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("P0500,"))
    lines[k] = "P0500,1e200," + lines[k].split(",", 2)[2]
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for command, *flags in (("score",), ("select",),
                            ("score", "--stat", "ks", "--replicates", "1000")):
        out = tmp_path / "-".join([command, *flags])
        assert run_cli(command, *flags, "--input", str(huge), "--out-dir", str(out),
                       "--deterministic") == 2
        stat = ("stat: ks (--stat ks; regime says lr)" if flags
                else "stat: lr (auto: min(n1,n2)=10 >= 5 -> lr)")
        assert capsys.readouterr().err.splitlines() == [
            stat, "error [input]: protein 'P0500' scored NaN (values too large?)"]
        assert not out.exists()


def test_ks_in_the_lr_regime_is_reported_once(tmp_path, capsys):
    sim = tmp_path / "sim"
    run_cli("simulate", "--preset", "water-n10", "--seed", "8",
            "--out-dir", str(sim), "--deterministic")
    capsys.readouterr()
    assert run_cli("score", "--stat", "ks", "--replicates", "1000", "--input",
                   str(sim / "matrix.csv"), "--out-dir", str(tmp_path / "o"),
                   "--deterministic") == 0
    assert capsys.readouterr().err == "stat: ks (--stat ks; regime says lr)\n"


@pytest.mark.parametrize("methods, preset, line", [
    ("ks+gap", "water-n10", "stat: ks on water-n10 (regime says lr)"),
    ("lr+gap,lr+bh", "water-n3", "stat: lr on water-n3 (regime says ks)"),
])
def test_bench_reports_a_statistic_outside_its_regime_once(methods, preset, line, tmp_path,
                                                           capsys):
    assert run_cli("bench", "--methods", methods, "--presets", preset, "--runs", "2",
                   "--replicates", "1000", "--out-dir", str(tmp_path), "--deterministic") == 0
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("methods, presets", [
    ("lr+bogus", "water-n3"),
    ("", "water-n3"),
    ("ttest+bh,ttest+bh", "water-n3"),
    ("ks+gap", "water-n3"),  # 10 replicates, too few for the null table
])
def test_bench_refuses_a_bad_plan_with_only_its_error(methods, presets, tmp_path, capsys):
    # 10 replicates matter only to a plan with a ks method
    assert run_cli("bench", "--methods", methods, "--presets", presets, "--runs", "2",
                   "--replicates", "10", "--out-dir", str(tmp_path / "o"), "--deterministic") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error [input]: ")
    assert not (tmp_path / "o").exists()


def test_exit_2_on_too_few_ks_replicates(tmp_path, capsys):
    sim = tmp_path / "sim"
    run_cli("simulate", "--preset", "water-n3", "--seed", "4",
            "--out-dir", str(sim), "--deterministic")
    assert run_cli("score", "--input", str(sim / "matrix.csv"), "--replicates",
                   "10", "--out-dir", str(tmp_path / "x")) == 2
    assert "error [input]: at least 1000 replicates" in capsys.readouterr().err


def test_exit_2_on_a_ks_design_below_three_samples(tmp_path, capsys):
    # n1 = n2 = 1 falls to ks by the regime rule, which needs three observations
    two = tmp_path / "two.csv"
    two.write_text("protein_id,a,b\nP1,1.0,2.0\nP2,0.5,3.0\nP3,2.0,1.5\n")
    assert run_cli("score", "--input", str(two), "--layout", "1,2",
                   "--out-dir", str(tmp_path / "x")) == 2
    assert "error [input]: need at least 3 observations" in capsys.readouterr().err
    assert not (tmp_path / "x" / "scores.csv").exists()


def test_exit_2_on_unknown_preset(tmp_path):
    assert run_cli("simulate", "--preset", "nope",
                   "--out-dir", str(tmp_path)) == 2


def test_exit_3_on_regime_violation(tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--preset", "water-n3", "--seed", "2",
            "--out-dir", str(sim), "--deterministic")
    assert run_cli("score", "--input", str(sim / "matrix.csv"),
                   "--stat", "lr", "--out-dir", str(tmp_path / "x")) == 3


def test_exit_4_on_strict_gap_miss(tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--preset", "water-n10", "--seed", "8",
            "--out-dir", str(sim), "--deterministic")
    assert run_cli("select", "--input", str(sim / "matrix.csv"),
                   "--policy", "gap:strict",
                   "--out-dir", str(tmp_path / "y")) == 4


def test_gap_on_a_one_protein_matrix_falls_back_to_bh(tmp_path, capsys):
    # one value is a flat curve: plain gap falls back as on any flat curve
    one = tmp_path / "one.csv"
    one.write_text("# layout: 1,1,1,1,1,2,2,2,2,2\nprotein_id,a,b,c,d,e,f,g,h,i,j\n"
                   "P1,1.0,1.1,0.9,1.05,0.95,10.0,10.1,9.9,10.05,9.95\n")
    out = tmp_path / "o"
    assert run_cli("select", "--input", str(one), "--policy", "gap",
                   "--out-dir", str(out), "--deterministic") == 0
    assert capsys.readouterr().out == (
        "selected 1 of 1 proteins (no gap found, fell back to BH at q = 0.05)\n")
    assert _read_selection_ids(out / "selection.csv") == ["P1"]
    assert run_cli("select", "--input", str(one), "--policy", "gap:strict",
                   "--out-dir", str(tmp_path / "s")) == 4


def test_auto_stat_picks_by_design_size(tmp_path):
    sim3 = tmp_path / "s3"
    sim10 = tmp_path / "s10"
    run_cli("simulate", "--preset", "water-n3", "--seed", "2",
            "--out-dir", str(sim3), "--deterministic")
    run_cli("simulate", "--preset", "water-n10", "--seed", "2",
            "--out-dir", str(sim10), "--deterministic")
    out3 = tmp_path / "o3"
    out10 = tmp_path / "o10"
    assert run_cli("score", "--input", str(sim3 / "matrix.csv"),
                   "--replicates", "1000", "--out-dir", str(out3),
                   "--deterministic") == 0
    assert run_cli("score", "--input", str(sim10 / "matrix.csv"),
                   "--out-dir", str(out10), "--deterministic") == 0
    assert "# stat: ks" in (out3 / "scores.csv").read_text()
    assert "# stat: lr" in (out10 / "scores.csv").read_text()


def test_stderr_says_which_statistic_ran_and_why(tmp_path, capsys):
    for name, seed in (("water-n3", 4), ("water-n10", 8)):
        run_cli("simulate", "--preset", name, "--seed", str(seed),
                "--out-dir", str(tmp_path / name), "--deterministic")
    capsys.readouterr()
    n3, n10 = (str(tmp_path / name / "matrix.csv") for name in ("water-n3", "water-n10"))
    cases = [
        (("score", "--input", n3), "stat: ks (auto: min(n1,n2)=3 < 5 -> ks)"),
        (("select", "--input", n10), "stat: lr (auto: min(n1,n2)=10 >= 5 -> lr)"),
        (("select", "--input", n10, "--stat", "ks"), "stat: ks (--stat ks; regime says lr)"),
        (("score", "--input", n3, "--stat", "lr"), "stat: lr (--stat lr; regime says ks)"),
    ]
    for argv, line in cases:
        rc = run_cli(*argv, "--replicates", "1000", "--out-dir", str(tmp_path / "o"),
                     "--deterministic")
        err = capsys.readouterr().err
        assert err.splitlines()[0] == line
    assert rc == 3 and "error [regime-violation]" in err  # the forced lr run on n = 3


def test_layout_sidecar_file(tmp_path):
    src = tmp_path / "m.csv"
    src.write_text("protein_id,a,b,c,d\nP1,1.0,2.0,9.0,8.0\n"
                   "P2,0.5,0.4,0.6,0.7\n")
    sidecar = tmp_path / "layout.csv"
    sidecar.write_text("sample_id,condition\na,1\nb,1\nc,2\nd,2\n")
    m = ingest_matrix(str(src), str(sidecar))
    assert m.p == 2 and m.n1 == 2 and m.n2 == 2
