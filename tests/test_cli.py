import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bcvlab import cli, pointset, sweep
from bcvlab.cli import build_parser, main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    rc = main(list(argv) + ["--out-dir", str(out)])
    return rc, out


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exit_code(tmp_path, capsys):
    assert main(["spacings"]) == 2
    assert main(["no-such-command"]) == 2


# (x-1)^4 and (x-1)^6: the root polish cannot certify these repeated roots.
REPEATED_ROOT_POLYS = ("x^4-4x^3+6x^2-4x+1", "x^6-6x^5+15x^4-20x^3+15x^2-6x+1")


def test_domain_error_exit_code(tmp_path, monkeypatch):
    rc, _ = run(tmp_path, "spacings", "--lambda", "1.5", "--n", "4")
    assert rc == 4

    def no_tally(*args):
        raise AssertionError("exact tallied a polynomial classify refuses")

    monkeypatch.setattr(pointset, "_next_level", no_tally)
    for i, poly in enumerate(REPEATED_ROOT_POLYS):
        assert run(tmp_path / f"c{i}", "classify", "--poly", poly)[0] == 4
        assert run(tmp_path / f"e{i}", "exact", "--minpoly", poly, "--n", "10")[0] == 4


def test_output_error_exit_code(tmp_path, capsys):
    # An --out-dir that is a file or lies under one, and an output path that
    # is a directory, end in one line and exit code 2, not a traceback.
    blocker = tmp_path / "file"
    blocker.write_text("")
    taken = tmp_path / "taken"
    (taken / "classify_report.json").mkdir(parents=True)
    for out in (blocker, blocker / "sub", taken):
        assert main(["classify", "--poly", "x^2-2", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (output): ") and err.count("\n") == 1
    # The sweep is refused before it draws a sample (16 samples report progress).
    assert main(["sweep", "--interval", "0.55,0.7", "--n", "8", "--s-grid", "1",
                 "--samples", "16", "--out-dir", str(blocker)]) == 2
    assert capsys.readouterr().err.startswith("error (output): ")


# One small run of each subcommand.
SMALL_RUNS = {
    "spacings": ("spacings", "--lambda", "0.7", "--n", "8"),
    "paircorr": ("paircorr", "--lambda", "0.7", "--n", "8", "--s-grid", "1"),
    "exact": ("exact", "--minpoly", "x^2+x-1", "--n", "6"),
    "sweep": ("sweep", "--interval", "0.6,0.7", "--n", "6", "--s-grid", "1",
              "--samples", "2", "--quadrature", "montecarlo", "--seed", "3"),
    "gaps": ("gaps", "--lambda", "0.6", "--n", "6"),
    "classify": ("classify", "--poly", "x^2-2"),
    "greedy": ("greedy", "--lambda", "0.75", "--k", "5"),
}


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_unusable_out_dir_exits_before_any_work(tmp_path, monkeypatch, capsys, name):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out-dir was created")

    for module, fn in ((cli, "generate"), (cli, "exact_levels"), (cli, "classify"),
                       (cli, "greedy_expansion"), (sweep, "generate")):
        monkeypatch.setattr(module, fn, no_work)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([*SMALL_RUNS[name], "--out-dir", str(blocker / "out")]) == 2
    assert capsys.readouterr().err.startswith("error (output): ")


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_manifest_fields_per_subcommand(tmp_path, name):
    argv = [*SMALL_RUNS[name], "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    manifest = read_json(tmp_path / "run_manifest.json")
    assert list(manifest) == ["subcommand", "argv", "seed", "versions", "outputs",
                              "wall_time_s"]
    assert manifest["subcommand"] == name and manifest["argv"] == argv
    assert manifest["seed"] == (3 if name == "sweep" else None)
    assert list(manifest["versions"]) == ["bcvlab", "numpy", "python"]
    assert manifest["outputs"] and all((tmp_path / f).is_file() for f in manifest["outputs"])


# Each subcommand's options, as option -> (dest, type, required, default).
SUBCOMMAND_OPTIONS = {
    "spacings": {"--lambda": ("lam", float, True, None), "--n": ("n", int, True, None),
                 "--ell": ("ell", int, False, 1), "--rescale": ("rescale", None, False, "none"),
                 "--out-dir": ("out_dir", None, False, ".")},
    "paircorr": {"--lambda": ("lam", float, True, None), "--n": ("n", int, True, None),
                 "--s-grid": ("s_grid", None, True, None),
                 "--interval": ("interval", None, False, None),
                 "--out-dir": ("out_dir", None, False, ".")},
    "exact": {"--minpoly": ("minpoly", None, True, None), "--n": ("n", int, True, None),
              "--out-dir": ("out_dir", None, False, ".")},
    "sweep": {"--interval": ("interval", None, True, None), "--n": ("n", int, True, None),
              "--s-grid": ("s_grid", None, True, None),
              "--samples": ("samples", int, True, None),
              "--quadrature": ("quadrature", None, False, "midpoint"),
              "--seed": ("seed", int, False, None), "--workers": ("workers", int, False, None),
              "--out-dir": ("out_dir", None, False, ".")},
    "gaps": {"--lambda": ("lam", float, True, None), "--n": ("n", int, True, None),
             "--primed": ("primed", None, False, False),
             "--distinct-tol": ("distinct_tol", float, False, None),
             "--out-dir": ("out_dir", None, False, ".")},
    "classify": {"--poly": ("poly", None, True, None),
                 "--out-dir": ("out_dir", None, False, ".")},
    "greedy": {"--lambda": ("lam", float, True, None), "--k": ("k", int, True, None),
               "--out-dir": ("out_dir", None, False, ".")},
}


def test_subcommand_options_are_pinned():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {opt: (a.dest, a.type, a.required, a.default)
                  for a in p._actions for opt in a.option_strings
                  if opt not in ("-h", "--help")}
           for name, p in sub.choices.items()}
    assert got == SUBCOMMAND_OPTIONS
    assert [a.choices for a in sub.choices["sweep"]._actions
            if a.dest == "quadrature"] == [("midpoint", "montecarlo")]


def test_resource_cap_exit_code(tmp_path):
    rc, _ = run(tmp_path, "spacings", "--lambda", "0.6", "--n", "40")
    assert rc == 3
    # 10**15 samples: a 7 PiB array, beyond the address space, so the
    # allocation is refused without touching memory.
    rc, _ = run(tmp_path, "sweep", "--interval", "0.6,0.7", "--n", "8",
                "--s-grid", "1", "--samples", "1000000000000000")
    assert rc == 3


# Arguments each subcommand refuses, and the exit code it refuses them with.
REFUSED_ARGS = {
    "paircorr-unparsable-s": (("paircorr", "--lambda", "0.6", "--n", "6",
                               "--s-grid", "1,abc"), 4),
    "classify-truncated-json": (("classify", "--poly", "[1,"), 4),
    "classify-constant": (("classify", "--poly", "5"), 4),
    "spacings-empirical-over-cap": (("spacings", "--lambda", "0.6", "--n", "6",
                                     "--rescale", "empirical:25"), 3),
    # A level count below 1 is outside the domain, not past a cap.
    "spacings-zero-levels": (("spacings", "--lambda", "0.6", "--n", "0"), 4),
    "spacings-empirical-zero-level": (("spacings", "--lambda", "0.6", "--n", "6",
                                       "--rescale", "empirical:0"), 4),
    "exact-zero-levels": (("exact", "--minpoly", "x^2+x-1", "--n", "0"), 4),
    "sweep-negative-seed": (("sweep", "--interval", "0.6,0.7", "--n", "8", "--s-grid", "1",
                             "--samples", "2", "--quadrature", "montecarlo",
                             "--seed", "-5"), 4),
    "greedy-zero-length": (("greedy", "--lambda", "0.75", "--k", "0"), 4),
    # Past the caps on k and on the degree, refused before the digit loop or
    # the coefficient tuple (each ran past 20 s before the caps).
    "greedy-over-length-cap": (("greedy", "--lambda", "0.75", "--k", "100000000"), 3),
    "classify-over-degree-cap": (("classify", "--poly", "x^99999999"), 3),
    "exact-over-degree-cap": (("exact", "--minpoly", "x^99999999", "--n", "4"), 3),
}


@pytest.mark.parametrize("case", sorted(REFUSED_ARGS))
def test_refused_argument_exit_code(tmp_path, case):
    argv, code = REFUSED_ARGS[case]
    rc, out = run(tmp_path, *argv)
    assert rc == code
    assert not (out / "run_manifest.json").exists()


# ---------------------------------------------------------------------------
# manifests and determinism


def test_manifest_lists_every_output(tmp_path):
    rc, out = run(tmp_path, "spacings", "--lambda", "0.5", "--n", "10",
                  "--ell", "1", "--rescale", "none")
    assert rc == 0
    manifest = read_json(out / "run_manifest.json")
    on_disk = {p.name for p in out.iterdir()}
    assert on_disk == set(manifest["outputs"]) | {"run_manifest.json"}
    assert manifest["subcommand"] == "spacings"
    assert "--lambda" in manifest["argv"]
    assert manifest["wall_time_s"] >= 0


def test_rerun_is_byte_identical_except_wall_time(tmp_path):
    args = ("paircorr", "--lambda", "0.61", "--n", "10", "--s-grid", "0.5,1,2,4")
    rc1, out1 = run(tmp_path / "a", *args)
    rc2, out2 = run(tmp_path / "b", *args)
    assert rc1 == rc2 == 0
    for name in read_json(out1 / "run_manifest.json")["outputs"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = read_json(out1 / "run_manifest.json")
    m2 = read_json(out2 / "run_manifest.json")
    for m in (m1, m2):
        m.pop("wall_time_s")
        m["argv"] = m["argv"][:-2]  # drop the differing --out-dir pair
    assert m1 == m2


def test_plot_script_references_only_manifest_files(tmp_path):
    rc, out = run(tmp_path, "spacings", "--lambda", "0.6429", "--n", "12",
                  "--ell", "1", "--rescale", "sqrt-half")
    assert rc == 0
    manifest = read_json(out / "run_manifest.json")
    script = (out / "spacings_plot.gp").read_text()
    referenced = {tok.strip("'") for tok in script.split() if tok.startswith("'")
                  and tok.endswith(".csv'")}
    assert referenced <= set(manifest["outputs"])
    assert referenced  # the histogram CSV is actually plotted


# ---------------------------------------------------------------------------
# subcommand behavior


def test_spacings_lattice_single_bin(tmp_path):
    rc, out = run(tmp_path, "spacings", "--lambda", "0.5", "--n", "10",
                  "--ell", "1", "--rescale", "none")
    assert rc == 0
    rows = (out / "spacings_histogram.csv").read_text().splitlines()[1:]
    counts = [int(r.split(",")[2]) for r in rows]
    assert sum(1 for c in counts if c > 0) == 1
    assert counts[10] == (1 << 10) - 1
    gof = read_json(out / "spacings_gof.json")
    assert gof["ks"] == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert gof["overflow"] == 0


def test_spacings_empirical_rescale_mode(tmp_path):
    rc, out = run(tmp_path, "spacings", "--lambda", "0.6429", "--n", "12",
                  "--ell", "2", "--rescale", "empirical:10")
    assert rc == 0
    gof = read_json(out / "spacings_gof.json")
    assert gof["rescale"] == "empirical:10"
    assert gof["sample_count"] == (1 << 12) - 2


# sha256 of the spacings outputs for fixed runs; a change to the
# histogram or fit statistics must not move a single byte of them.
SPACINGS_DIGESTS = {
    ("1", "none"): ("d35e63e9384c7118d7a96bf785e9217cb9ee5fac10fb7ff026e83202c0b59566",
                    "197a2824fb18fe9fd4c973a4fe79dd49d947edc0a4fdaaa98f66a997a9b874d2"),
    ("1", "sqrt-half"): ("317a83ce5087ca8a2d0b1b163eaf79e50191ec10a34a55c22fc7aed22254acd4",
                         "c051d408ed11ef71094003258b2d2ed618206c7a9dc0be434d84a9162da75435"),
    ("3", "sqrt-half"): ("ec4bcaaa6511bf65fb8d753d9a2dd847d6b746d298363cb3405466b141d4ae2e",
                         "804bb54f0460e4485d01a242a42cc20aaaa6c7647c242b01fb26ce056fec892a"),
    ("2", "empirical:12"): ("16b41c044c66c452df2e1d77b0516ea111386b4cce9185854af6bafac4ad95a9",
                            "b1b119d890be1d2ec1e937ff3ff321daeb858c5aa6e22b6f9b7dc50b6aef9d4d"),
}


@pytest.mark.parametrize("ell,mode", sorted(SPACINGS_DIGESTS))
def test_spacings_output_digests(tmp_path, ell, mode):
    rc, out = run(tmp_path, "spacings", "--lambda", "0.70880447", "--n", "16",
                  "--ell", ell, "--rescale", mode)
    assert rc == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("spacings_histogram.csv", "spacings_gof.json"))
    assert got == SPACINGS_DIGESTS[ell, mode]


def test_spacings_bad_rescale_flag(tmp_path):
    for mode in ("fourier", "empirical:abc", "empirical:"):
        rc, _ = run(tmp_path, "spacings", "--lambda", "0.6", "--n", "8",
                    "--rescale", mode)
        assert rc == 4


@pytest.mark.parametrize("ell", ["114", "171", "172"])
def test_spacings_overflowing_poisson_overlay_exit_code(tmp_path, ell):
    # The order-ell Poisson density overflows a double from ell = 114 on.
    rc, out = run(tmp_path, "spacings", "--lambda", "0.7", "--n", "14",
                  "--ell", ell)
    assert rc == 4
    assert not (out / "spacings_gof.json").exists()


# sha256 of paircorr_curve.csv and sweep_report.json for fixed runs; a change
# to the pair counter or the sweep must not move a single byte of them.  The
# extra options follow PAIRCORR_ARGS, so a repeated option overrides it.
PAIRCORR_ARGS = ("paircorr", "--lambda", "0.70880447", "--n", "14",
                 "--s-grid", "0,0.5,1,2")
PAIRCORR_DIGESTS = {
    (): "eef82a3ee28a2421f00c512cb0250deee0a12067df1450365cd9f6b4c79836dd",
    ("--interval", "0.25,0.75"):
        "98aedb9e8564d3ba810d31ec72f6b14362f69c90f84b38df3fec0965ca577272",
    # Four blocks, most of whose rows reach past the pair counter's scan depth.
    ("--lambda", "0.7548776662466927", "--n", "17", "--s-grid", "0,0.5,1,2,4"):
        "821909423fc9bf66690049b5a69c99d9d4905d74e6f47a167572f278d7068c1e",
}


@pytest.mark.parametrize("extra", sorted(PAIRCORR_DIGESTS))
def test_paircorr_output_digests(tmp_path, extra):
    rc, out = run(tmp_path, *PAIRCORR_ARGS, *extra)
    assert rc == 0
    got = hashlib.sha256((out / "paircorr_curve.csv").read_bytes()).hexdigest()
    assert got == PAIRCORR_DIGESTS[extra]


def test_sweep_montecarlo_output_digest(tmp_path):
    rc, out = run(tmp_path, "sweep", "--interval", "0.6,0.7", "--n", "12",
                  "--s-grid", "0.5,1,2", "--samples", "6",
                  "--quadrature", "montecarlo", "--seed", "7", "--workers", "2")
    assert rc == 0
    got = hashlib.sha256((out / "sweep_report.json").read_bytes()).hexdigest()
    assert got == "973cf909c6c7a37012e8291f4926a095dcacfa81af3ec7eed38cf888f48474f1"


# sha256 of the JSON report of fixed gaps, classify, greedy and exact runs.
REPORT_DIGESTS = {
    ("gaps", "--lambda", "0.6", "--n", "5", "--primed"):
        "ac186f19df48ca51054be34a8f47a0e8e28c005101a6106f01abbab687662af0",
    ("gaps", "--lambda", "0.6", "--n", "17", "--primed"):
        "6cb1bf3060341602ea2fc24f8e282dc2e3508f7b02f5db8a01f057eb188ee9db",
    ("gaps", "--lambda", "0.6", "--n", "9", "--distinct-tol", "1e-9"):
        "0904f9b1ca7845b59b9d8caab1b2720e783cb42a02228154a5ffeaca13eb4c0a",
    # STANDARD sets of several merge blocks; the first one holds the EJK gap.
    ("gaps", "--lambda", "0.6", "--n", "19"):
        "6f88bdcbbe03d83c21c86e6100860dc1b47e4eb621c3c4d17ee4842baebf826e",
    ("gaps", "--lambda", "0.7", "--n", "18"):
        "2b9cbbc56d69ccdca87ffd0bd5f25af3fc2613b1851a00582f9a42f02a327cf8",
    ("classify", "--poly", "x^3-2x-2"):
        "fc61017c47724fbb481525ae1f11cc02ef4443ffb02acb12c622054b3de09600",
    ("classify", "--poly", "x^2+x-1"):
        "3c180d57f54a620c75ff9251f641adff89701118e55fe2880e1367c7ce18c4ee",
    ("classify", "--poly", "2x^2-1"):
        "adc513f8376e17afc3a7fae172e2bc2d558c641d79c121895c71859095c59279",
    ("greedy", "--lambda", "0.75", "--k", "5"):
        "17a63a1c24159f84e478a520f7164c6200002d08c2bdc591ce3da901a86a9373",
    ("exact", "--minpoly", "x^2+x-1", "--n", "12"):
        "e2591c1597d283032da86a94f2d60038c760509bd0a7d07464723a5b85389c67",
    ("exact", "--minpoly", "x^2-2", "--n", "12"):
        "4a2df5b9b8347cc55b679c7d2e4aca9881c25fe0fc14117c2e44439422362230",
    ("exact", "--minpoly", "2x^2-1", "--n", "10"):
        "50dfab75abd34168729b01997884459a33f2cf5a4d0c490deba7218d379f92ad",
    ("exact", "--minpoly", "x^3-2x-2", "--n", "10"):
        "6db2c74066c5d64bf212677b804e1d948bb2238f700e865601e02256530cfe8b",
}


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS))
def test_report_output_digests(tmp_path, argv):
    rc, out = run(tmp_path, *argv)
    assert rc == 0
    got = hashlib.sha256((out / f"{argv[0]}_report.json").read_bytes()).hexdigest()
    assert got == REPORT_DIGESTS[argv]


def test_paircorr_lattice_value(tmp_path):
    rc, out = run(tmp_path, "paircorr", "--lambda", "0.5", "--n", "4",
                  "--s-grid", "2.5")
    assert rc == 0
    assert (out / "paircorr_curve.csv").read_text().splitlines()[1] == "2.5,3.625"


def test_paircorr_zero_s_warns_toward_exact(tmp_path, capsys):
    rc, out = run(tmp_path, "paircorr", "--lambda", "0.618034", "--n", "10",
                  "--s-grid", "0")
    assert rc == 0
    assert "exact" in capsys.readouterr().err


def test_paircorr_disjoint_interval_errors(tmp_path):
    rc, _ = run(tmp_path, "paircorr", "--lambda", "0.9", "--n", "6",
                "--s-grid", "1", "--interval", "0.6,0.7")
    assert rc == 4


def test_paircorr_one_value_interval_errors(tmp_path):
    rc, _ = run(tmp_path, "paircorr", "--lambda", "0.6", "--n", "6",
                "--s-grid", "1", "--interval", "0.2")
    assert rc == 4


def test_paircorr_has_no_primed_flag(tmp_path):
    # A PRIMED curve is the STANDARD curve at s * (1 - lambda); scale --s-grid.
    rc, _ = run(tmp_path, "paircorr", "--lambda", "0.6", "--n", "6",
                "--s-grid", "1", "--primed")
    assert rc == 2


def test_exact_golden_growth_comparison(tmp_path):
    rc, out = run(tmp_path, "exact", "--minpoly", "x^2+x-1", "--n", "12")
    assert rc == 0
    report = read_json(out / "exact_report.json")
    assert report["distinct"] == 609
    assert report["growth"]["forbidden_block"] == "100"
    assert report["growth"]["word_counts"] == report["growth"]["distinct_counts"]
    # x^2+x-1 pins the parameter 0.618... itself (roots 0.618, -1.618); the
    # Pisot number is its reciprocal, whose polynomial is x^2-x-1.
    assert report["classification"]["verdict"] == "neither"


def test_exact_spellings_of_one_polynomial_write_one_report(tmp_path):
    # Trailing zeros and a negative leading coefficient are normalized once,
    # so the report, the classification, the walk and the growth comparison
    # all read x^2 + x - 1.
    spellings = ("x^2+x-1", "[-1,1,1]", "[-1,1,1,0]", "[1,-1,-1]", "-x^2-x+1")
    reports = []
    for i, poly in enumerate(spellings):
        # "--minpoly=" keeps argparse from reading "-x^2..." as an option.
        rc, out = run(tmp_path / str(i), "exact", f"--minpoly={poly}", "--n", "8")
        assert rc == 0
        reports.append((out / "exact_report.json").read_bytes())
    assert len(set(reports)) == 1
    report = json.loads(reports[0])
    assert report["minpoly"] == "x^2 + x - 1" and report["coefficients"] == [-1, 1, 1]
    assert report["growth"]["forbidden_block"] == "100"
    assert report["growth"]["word_counts"] == report["growth"]["distinct_counts"]


def test_exact_tallies_each_level_once(tmp_path, monkeypatch):
    real = pointset._next_level
    merges = []

    def counting(*args):
        merges.append(args[0].multiplicities.size)
        return real(*args)

    monkeypatch.setattr(pointset, "_next_level", counting)
    rc, _ = run(tmp_path, "exact", "--minpoly", "x^2+x-1", "--n", "12")
    assert rc == 0
    assert len(merges) == 12


def test_exact_never_decodes_keys(tmp_path, monkeypatch):
    # The report reads only the multiplicities, so no level is decoded.
    def no_decode(self):
        raise AssertionError("bcvlab exact decoded the keys")

    monkeypatch.setattr(pointset.ExactPointSet, "keys", property(no_decode))
    for i, poly in enumerate(("x^2+x-1", "2x^2-1")):  # with and without growth
        rc, out = run(tmp_path / str(i), "exact", "--minpoly", poly, "--n", "12")
        assert rc == 0
        assert read_json(out / "exact_report.json")["total_strings"] == 4096


def test_exact_garsia_no_growth_section(tmp_path):
    rc, out = run(tmp_path, "exact", "--minpoly", "x^2-2", "--n", "12")
    assert rc == 0
    report = read_json(out / "exact_report.json")
    assert report["distinct"] == 4096
    assert report["coincidence_rate"] == 0.0
    assert "growth" not in report
    assert "growth_note" in report
    assert report["classification"]["verdict"] == "garsia"


def test_exact_garsia_cubic_reciprocal(tmp_path):
    rc, out = run(tmp_path, "exact", "--minpoly", "x^3-2x-2", "--n", "10")
    assert rc == 0
    report = read_json(out / "exact_report.json")
    assert report["classification"]["verdict"] == "garsia"
    assert report["classification"]["reciprocal"] == pytest.approx(0.5652, abs=5e-5)


def test_exact_int64_guard_exit_code(tmp_path, capsys):
    # Residues of 1000x^2-1 at N=8 sit on the scale 1000**8 > 2**63.
    rc, _ = run(tmp_path, "exact", "--minpoly", "1000x^2-1", "--n", "8")
    assert rc == 3
    err = capsys.readouterr().err
    assert "error (resource cap)" in err and "Traceback" not in err


def test_exact_unparsable_polynomial(tmp_path):
    rc, _ = run(tmp_path, "exact", "--minpoly", "x^^2", "--n", "4")
    assert rc == 4


def test_gaps_subcommand_ejk(tmp_path):
    rc, out = run(tmp_path, "gaps", "--lambda", "0.6", "--n", "5", "--primed")
    assert rc == 0
    report = read_json(out / "gaps_report.json")
    assert report["ejk_prediction_match"] is True
    assert report["max_gap"] == pytest.approx(0.6**4, rel=1e-12)


def test_classify_subcommand(tmp_path):
    rc, out = run(tmp_path, "classify", "--poly", "x^2-x-1")
    assert rc == 0
    report = read_json(out / "classify_report.json")
    assert report["verdict"] == "pisot"
    assert report["reciprocal"] == pytest.approx(0.618034, abs=1e-6)


def test_classify_accepts_json_coefficient_list(tmp_path):
    rc, out = run(tmp_path, "classify", "--poly", "[-1, -1, 1]")
    assert rc == 0
    assert read_json(out / "classify_report.json")["verdict"] == "pisot"
    rc, _ = run(tmp_path / "bad", "classify", "--poly", "[1.5, 2]")
    assert rc == 4
    rc, _ = run(tmp_path / "bool", "classify", "--poly", "[true, 1]")
    assert rc == 4


def test_greedy_subcommand(tmp_path):
    rc, out = run(tmp_path, "greedy", "--lambda", "0.75", "--k", "5")
    assert rc == 0
    report = read_json(out / "greedy_report.json")
    assert report["polynomial"] == "1 - x - x^5"
    assert report["root"] == pytest.approx(0.754878, abs=1e-6)
    assert report["coefficients"] == [1, 0, 0, 0, 1]


def test_sweep_subcommand_deterministic(tmp_path):
    args = ("sweep", "--interval", "0.51,0.66", "--n", "8", "--s-grid",
            "0.5,1", "--samples", "6", "--quadrature", "montecarlo",
            "--seed", "99")
    rc1, out1 = run(tmp_path / "a", *args)
    rc2, out2 = run(tmp_path / "b", *args)
    assert rc1 == rc2 == 0
    assert (out1 / "sweep_report.json").read_bytes() == \
        (out2 / "sweep_report.json").read_bytes()
    report = read_json(out1 / "sweep_report.json")
    assert report["seed"] == 99
    assert read_json(out1 / "run_manifest.json")["seed"] == 99


@pytest.mark.parametrize("samples,shown", [(15, []), (16, list(range(1, 17))),
                                           (25, [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24])])
def test_sweep_progress_lines(tmp_path, capsys, samples, shown):
    # From 16 samples on, every tenth of them (at least one) is reported.
    rc, _ = run(tmp_path, "sweep", "--interval", "0.6,0.7", "--n", "6",
                "--s-grid", "1", "--samples", str(samples))
    assert rc == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[1] for line in lines] == [f"{i}/{samples}" for i in shown]
    assert all(re.fullmatch(r"sweep: \d+/\d+ samples \(\d+\.\ds\)", line) for line in lines)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# One run per subcommand with a JSON report, including the grid with no
# positive s, where the sweep's slope band has no value.
STRICT_JSON_RUNS = {
    "spacings_gof.json": ("spacings", "--lambda", "0.7", "--n", "10"),
    "gaps_report.json": ("gaps", "--lambda", "0.6", "--n", "9", "--distinct-tol", "0"),
    "sweep_report.json": ("sweep", "--interval", "0.51,0.66", "--n", "6",
                          "--s-grid", "0", "--samples", "2"),
    "classify_report.json": ("classify", "--poly", "x^3-2x-2"),
    "greedy_report.json": ("greedy", "--lambda", "0.75", "--k", "5"),
    "exact_report.json": ("exact", "--minpoly", "2x^2-1", "--n", "6"),
}


@pytest.mark.parametrize("name", sorted(STRICT_JSON_RUNS))
def test_json_reports_are_strict(tmp_path, name):
    rc, out = run(tmp_path, *STRICT_JSON_RUNS[name])
    assert rc == 0
    for path in (out / name, out / "run_manifest.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


def test_sweep_without_positive_s_writes_null_slopes(tmp_path):
    rc, out = run(tmp_path, *STRICT_JSON_RUNS["sweep_report.json"])
    assert rc == 0
    report = read_json(out / "sweep_report.json")
    assert report["c_hat"] is None and report["C_hat"] is None


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_gaps_non_finite_tolerance_exit_code(tmp_path, tol):
    rc, out = run(tmp_path, "gaps", "--lambda", "0.6", "--n", "9",
                  "--distinct-tol", tol)
    assert rc == 4
    assert not (out / "gaps_report.json").exists()


def test_sweep_one_value_interval_errors(tmp_path):
    rc, _ = run(tmp_path, "sweep", "--interval", "0.55", "--n", "6",
                "--s-grid", "1", "--samples", "2")
    assert rc == 4


# ---------------------------------------------------------------------------
# demos

REPO = Path(__file__).resolve().parents[1]
# sha256 of each demo's stdout; spacing_histograms.py prints a path relative
# to its working directory, so every demo runs in a fresh one.
DEMO_DIGESTS = {
    "exact_coincidences.py": "334707839ef69fdf5e55653f2f5b9d5645e01d8537ab5946e4ffc868842e58cb",
    "gap_laws.py": "26e5b365b936e6e19e29c017b17bddc9568115d08ea005f5c90bcfc166af9afd",
    "parameter_sweeps.py": "a403862e9f905dc677bc04accdab10354b0b5e2b65b5fcb7d6fe6777b8405677",
    "spacing_histograms.py": "d58dd87d292feebf9f8cc447ddcab90715307306fdcc633f7e076fbce6254e25",
}


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-m", "bcvlab.cli", "classify", "--poly", "x^2-2",
                           "--out-dir", str(tmp_path)], env=env, capture_output=True,
                          timeout=60)
    assert done.returncode == 0 and done.stderr == b""
    assert read_json(tmp_path / "classify_report.json")["verdict"] == "garsia"
    assert read_json(tmp_path / "run_manifest.json")["outputs"] == ["classify_report.json"]


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_stdout_digests(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, str(REPO / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, check=True, timeout=300)
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_DIGESTS[demo]
