import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from qpcodes import cli
from qpcodes.cli import main
from qpcodes.construct import CodeSpec, extended_hamming, panchenko, shorten
from qpcodes.product_sim import SimConfig, default_product_code, failure_probability
from qpcodes.spectrum import WeightSpectrum


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_construct_panchenko_with_sidecar_and_manifest(tmp_path):
    out = tmp_path / "pan7.txt"
    assert main(["construct", "--family", "panchenko", "--r", "7", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "7 40"
    assert text == panchenko(7).H.to_text()

    spec = json.loads((tmp_path / "pan7.txt.json").read_text())
    assert (spec["n"], spec["r"], spec["d"]) == (40, 7, 4)
    assert spec["lineage"]["seed"] == "S"
    assert spec["lineage"]["doublings"] == 3

    manifest = json.loads((tmp_path / "pan7.txt.manifest.json").read_text())
    assert manifest["command"] == "construct"
    assert manifest["version"]
    digest = "sha256:" + hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["outputs"][str(out)] == digest


def test_construct_other_families(tmp_path):
    out = tmp_path / "s.txt"
    assert main(["construct", "--family", "seed", "--seed", "S", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "4 5"

    out = tmp_path / "g3.txt"
    assert main(["construct", "--family", "general", "--r", "6", "--g", "3", "--out", str(out)]) == 0
    spec = json.loads((tmp_path / "g3.txt.json").read_text())
    assert (spec["n"], spec["r"], spec["d"]) == (18, 6, 4)

    out = tmp_path / "comp.txt"
    assert main(["construct", "--family", "panchenko", "--r", "8",
                 "--shorten", "8", "--out", str(out)]) == 0
    spec = json.loads((tmp_path / "comp.txt.json").read_text())
    assert (spec["n"], spec["r"], spec["d"]) == (72, 8, 4)
    assert spec["lineage"]["shortened"] == list(range(72, 80))


def test_construct_refusals(tmp_path):
    out = str(tmp_path / "x.txt")
    assert main(["construct", "--family", "eh", "--r", "2", "--out", out]) == 2
    assert main(["construct", "--family", "general", "--r", "8", "--g", "4", "--out", out]) == 2
    assert main(["construct", "--family", "eh", "--out", out]) == 2
    assert main(["construct", "--family", "panchenko", "--r", "7",
                 "--shorten", "40", "--out", out]) == 2


def test_spectrum_named_code_both_methods(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--code", "panchenko7", "--method", "both",
                 "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["n"] == 40 and blob["k"] == 33
    assert blob["counts"]["4"] == "1190"


def test_spectrum_from_file_without_sidecar(tmp_path):
    mat = tmp_path / "eh4.txt"
    assert main(["construct", "--family", "eh", "--r", "4", "--out", str(mat)]) == 0
    (tmp_path / "eh4.txt.json").unlink()  # drop the metadata on purpose

    out = tmp_path / "spec.json"
    assert main(["spectrum", "--code", str(mat), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["counts"] == {"0": "1", "4": "14", "8": "1"}
    # the doubling recursion reads the doublings off the matrix itself
    walked = tmp_path / "walked.json"
    assert main(["spectrum", "--code", str(mat), "--method", "recursion",
                 "--out", str(walked)]) == 0
    assert json.loads(walked.read_text())["counts"] == {"0": "1", "4": "14", "8": "1"}


def test_spectrum_of_a_file_without_sidecar_matches_the_named_code(tmp_path):
    mat = tmp_path / "pan7.txt"
    assert main(["construct", "--family", "panchenko", "--r", "7", "--out", str(mat)]) == 0
    Path(str(mat) + ".json").unlink()
    from_file, named = tmp_path / "file.json", tmp_path / "named.json"
    assert main(["spectrum", "--code", str(mat), "--method", "both", "--out", str(from_file)]) == 0
    assert main(["spectrum", "--code", "pan7", "--method", "both", "--out", str(named)]) == 0
    assert from_file.read_bytes() == named.read_bytes()


def test_spectrum_both_fails_closed_on_mismatch(tmp_path):
    mat = tmp_path / "pan5.txt"
    assert main(["construct", "--family", "panchenko", "--r", "5", "--out", str(mat)]) == 0
    lines = mat.read_text().splitlines()
    row = list(lines[1])
    row[0] = "1" if row[0] == "0" else "0"  # corrupt one matrix bit
    lines[1] = "".join(row)
    mat.write_text("\n".join(lines) + "\n")

    out = tmp_path / "spec.json"
    assert main(["spectrum", "--code", str(mat), "--method", "both",
                 "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("code,method", [("pan6", "both"), ("file", "recursion"), ("file", "both")])
def test_spectrum_fails_closed_when_the_routes_disagree(tmp_path, monkeypatch, capsys, code, method):
    # both routes read the same H, so only a fault in one can part them: one
    # A_4 word moved to weight 5 stands in for it
    def faulty(c):
        counts = list(recursion(c).counts)
        counts[4], counts[5] = counts[4] - 1, counts[5] + 1
        return WeightSpectrum(c.spec.n, tuple(counts))

    recursion = cli.spectrum_by_doubling
    if code == "file":
        code = str(tmp_path / "pan6.txt")
        assert main(["construct", "--family", "panchenko", "--r", "6", "--out", code]) == 0
    monkeypatch.setattr(cli, "spectrum_by_doubling", faulty)
    out = tmp_path / "spec.json"
    capsys.readouterr()
    assert main(["spectrum", "--code", code, "--method", method, "--out", str(out)]) == 3
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


def test_spectrum_both_fails_closed_when_only_the_spectrum_is_wrong(tmp_path, capsys):
    # a [20,14,4] matrix that is not pan6, under pan6's sidecar: the distance
    # check passes, but the shortened matrix has no doubling to peel, so the
    # recursion refuses it whatever the sidecar's lineage says
    mat = tmp_path / "pan6.txt"
    assert main(["construct", "--family", "panchenko", "--r", "6", "--out", str(mat)]) == 0
    mat.write_text(shorten(extended_hamming(6), list(range(20, 32))).H.to_text())

    out = tmp_path / "spec.json"
    capsys.readouterr()
    assert main(["spectrum", "--code", str(mat), "--method", "both",
                 "--out", str(out)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()
    assert main(["spectrum", "--code", str(mat), "--out", str(out)]) == 0


def test_sidecar_distance_is_checked(tmp_path):
    mat = tmp_path / "pan6.txt"
    assert main(["construct", "--family", "panchenko", "--r", "6", "--out", str(mat)]) == 0
    sidecar = Path(str(mat) + ".json")
    spec = json.loads(sidecar.read_text())
    spec["d"] = 3
    sidecar.write_text(json.dumps(spec))

    out = tmp_path / "x.csv"
    assert main(["erasure", "--code", str(mat), "--rho-min", "4", "--rho-max", "4",
                 "--psi", "--out", str(out)]) == 3
    assert not out.exists()
    assert main(["spectrum", "--code", str(mat), "--out", str(tmp_path / "s.json")]) == 3

    spec["d"] = 4
    sidecar.write_text(json.dumps(spec))
    assert main(["erasure", "--code", str(mat), "--rho-min", "4", "--rho-max", "4",
                 "--psi", "--out", str(out)]) == 0


def test_sidecar_distance_written_as_a_string_is_read_as_a_number(tmp_path):
    # "d": "4" reads as d=4, as "n" and "r" are read; a null d stays unset
    mat = tmp_path / "m.txt"
    assert main(["construct", "--family", "eh", "--r", "5", "--out", str(mat)]) == 0
    sidecar = Path(str(mat) + ".json")
    spec = json.loads(sidecar.read_text())
    assert spec["d"] == 4
    argv = ["erasure", "--code", str(mat), "--rho-min", "4", "--rho-max", "5", "--psi", "--out"]
    assert main(argv + [str(tmp_path / "int.csv")]) == 0
    sidecar.write_text(json.dumps(dict(spec, d="4")))
    assert main(argv + [str(tmp_path / "str.csv")]) == 0
    assert (tmp_path / "str.csv").read_bytes() == (tmp_path / "int.csv").read_bytes()
    assert main(["spectrum", "--code", str(mat), "--out", str(tmp_path / "s.json")]) == 0
    assert CodeSpec.from_json(dict(spec, d=None)).d is None


def test_erasure_exact_grid(tmp_path):
    out = tmp_path / "eh7.csv"
    assert main(["erasure", "--code", "eh7", "--rho-min", "4", "--rho-max", "5",
                 "--exact", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["rho"] for r in rows] == ["4", "5"]
    assert rows[0]["delta_exact_or_estimate"] == "0.983607"
    assert rows[1]["delta_exact_or_estimate"] == "0.918033"
    assert {r["method"] for r in rows} == {"exact"}
    assert rows[0]["s_exact_or_estimate"] == "624960"

    side = json.loads((tmp_path / "eh7.csv.json").read_text())
    assert side["code"]["n"] == 64
    got = Fraction(side["rows"][0]["delta_exact_or_estimate"])
    assert got == Fraction(624960, 635376)


def test_erasure_sampled_deterministic(tmp_path):
    args = ["erasure", "--code", "panchenko5", "--rho-min", "4", "--rho-max", "4",
            "--sample", "20000", "--seed", "3"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    row = read_csv(out1)[0]
    assert row["method"] == "sampled"
    assert float(row["ci_halfwidth"]) > 0
    assert abs(float(row["delta_exact_or_estimate"]) - 200 / 210) < 4 * 0.0019


def test_erasure_bound_only_methods(tmp_path):
    out = tmp_path / "psi.csv"
    assert main(["erasure", "--code", "eh7", "--rho-min", "6", "--rho-max", "6",
                 "--psi", "--out", str(out)]) == 0
    row = read_csv(out)[0]
    assert row["method"] == "psi-bound"
    assert row["s_exact_or_estimate"] == ""
    assert row["delta_lower"] == "0.738538"

    out = tmp_path / "rec.csv"
    assert main(["erasure", "--code", "eh7", "--rho-min", "6", "--rho-max", "6",
                 "--recursive", "2", "--z", "7", "--out", str(out)]) == 0
    row = read_csv(out)[0]
    assert row["method"] == "recursive"
    assert float(row["delta_entropy_bound"]) > float(row["delta_weak_bound"]) > 0


def test_erasure_budget_refusal(tmp_path, capsys):
    # pan14 less its last column peels nothing, so the lattice would walk the
    # 3,597,226,406,753 subspaces of GF(2)^14 of dimension <= 4
    m = str(tmp_path / "m.txt")
    assert main(["construct", "--family", "panchenko", "--r", "14", "--shorten", "1", "--out", m]) == 0
    capsys.readouterr()
    assert main(["erasure", "--code", m, "--rho-min", "4", "--rho-max", "4",
                 "--exact", "--out", str(tmp_path / "x.csv")]) == 4
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "budget exceeded: exact count would visit 3597226406753 subspaces of GF(2)^14, over budget 10000000000"
    ]
    assert not (tmp_path / "x.csv").exists()


def test_erasure_exact_on_the_lattice_past_the_subset_budget(tmp_path):
    # C(128,7) = 94,525,795,200 subsets is over the budget, but eh8 peels to
    # the base [1], and the lattice visits the 2 subspaces of GF(2)^1
    out = tmp_path / "x.csv"
    assert main(["erasure", "--code", "eh8", "--rho-min", "7", "--rho-max", "7",
                 "--exact", "--out", str(out)]) == 0
    row, = read_csv(out)
    assert (row["method"], row["s_exact_or_estimate"]) == ("exact", "65019838464")


def test_erasure_flag_validation(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["erasure", "--code", "eh7", "--rho-min", "5", "--rho-max", "4",
                 "--out", out]) == 2
    assert main(["erasure", "--code", "nosuch99z", "--rho-min", "4", "--rho-max", "4",
                 "--out", out]) == 2


def test_simulate_json_contract(tmp_path):
    out = tmp_path / "sim.json"
    args = ["simulate", "--p", "1.2e-3", "--dplus", "4", "--trials", "300",
            "--seed", "7", "--out", str(out)]
    assert main(args) == 0
    blob = json.loads(out.read_text())
    assert set(blob) == {"p", "d_plus", "trials", "failures", "miscorrections",
                         "estimate", "ci95", "strategy", "tail_bound"}
    assert blob["strategy"] == "plain"
    assert blob["trials"] == 300
    assert blob["estimate"] == blob["failures"] / 300

    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first  # identical rerun, identical artifact


def test_simulate_stratified(tmp_path):
    out = tmp_path / "strat.json"
    assert main(["simulate", "--p", "1.2e-3", "--dplus", "4", "--trials", "1",
                 "--stratified", "--per-stratum", "100", "--kmax", "12",
                 "--seed", "7", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["strategy"] == "stratified"
    assert blob["tail_bound"] > 0
    assert blob["trials"] % 100 == 0


def test_table1_single_code(tmp_path):
    out = tmp_path / "t1.csv"
    assert main(["table", "--which", "1", "--codes", "panchenko7",
                 "--rhos", "4,5", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["rho"] for r in rows] == ["4", "5"]
    assert rows[0]["reference"] == "0.9870"
    assert all(abs(float(r["deviation"])) < 1e-4 for r in rows)
    assert {r["method"] for r in rows} == {"exact"}


def test_tables_leave_rows_without_a_reference_blank(tmp_path):
    # eh6 and p=2e-3 have no published value; pan7 rho=4 and p=1e-2 do
    grids = [
        ["--which", "1", "--codes", "eh6,pan7", "--rhos", "4"],
        ["--which", "2", "--p", "2e-3,1e-2", "--dplus", "3", "--trials", "200"],
    ]
    for grid, value in zip(grids, ("value", "estimate")):
        out = tmp_path / "t.csv"
        assert main(["table", *grid, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "t.csv.json").read_text())["rows"]
        (blank, cell), (blank_json, cell_json) = read_csv(out), sidecar
        assert (blank["reference"], blank["deviation"]) == ("", "")
        assert (blank_json["reference"], blank_json["deviation"]) == (None, None)
        assert cell["reference"] == cell_json["reference"] and cell["deviation"] != ""
        assert cell_json["deviation"] == float(Fraction(cell_json[value])) - float(cell_json["reference"])


def test_table2_subgrid(tmp_path):
    out = tmp_path / "t2.csv"
    assert main(["table", "--which", "2", "--p", "1e-2", "--dplus", "3,6",
                 "--trials", "300", "--seed", "11", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [(r["p"], r["d_plus"]) for r in rows] == [("0.01", "3"), ("0.01", "6")]
    assert rows[0]["reference"] == "0.996"
    assert rows[1]["reference"] == "0.926"
    assert {r["method"] for r in rows} == {"plain"}
    for r in rows:
        assert 0.85 <= float(r["estimate"]) <= 1.0


@pytest.mark.parametrize("extra", [["--trials", "400"], ["--stratified", "--per-stratum", "20"]])
def test_table2_unsorted_repeated_dplus_rows_equal_single_cells(tmp_path, extra):
    # one draw per p serves every listed d_plus, in the listed order
    grid = tmp_path / "grid.csv"
    assert main(["table", "--which", "2", "--p", "1e-3,2e-3", "--dplus", "6,3,4,4", *extra,
                 "--seed", "13", "--out", str(grid)]) == 0
    rows = read_csv(grid)
    assert [(r["p"], r["d_plus"]) for r in rows] == [(p, d) for p in ("0.001", "0.002") for d in "6344"]
    for i, row in enumerate(rows):
        one = tmp_path / f"one{i}.csv"
        assert main(["table", "--which", "2", "--p", row["p"], "--dplus", row["d_plus"], *extra,
                     "--seed", "13", "--out", str(one)]) == 0
        assert read_csv(one) == [row]
    assert rows[2] == rows[3]
    assert len({r["failures"] for r in rows}) > 2


@pytest.mark.parametrize("grid", [["--p", "1e-3,1e-2", "--dplus", "4,6,2"], ["--p", "1e-3,1.5", "--dplus", "4"]])
def test_table2_refuses_a_bad_cell_before_any_trial(tmp_path, monkeypatch, capsys, grid):
    calls = []
    monkeypatch.setattr(cli, "failure_probabilities", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "t.csv"
    assert main(["table", "--which", "2", *grid, "--trials", "50", "--out", str(out)]) == 2
    assert calls == []
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_table2_stratified_dense_cell(tmp_path):
    # P(K=k) at p=1e-2 over 5184 bits has a denominator of about 10^10368,
    # past the digits str() will print; the sidecar carries the float
    out = tmp_path / "t2s.csv"
    assert main(["table", "--which", "2", "--stratified", "--p", "1e-2", "--dplus", "4",
                 "--per-stratum", "3", "--seed", "5", "--out", str(out)]) == 0
    row = json.loads(Path(str(out) + ".json").read_text())["rows"][0]
    assert isinstance(row["estimate"], float)
    assert 0.99 <= row["estimate"] <= 1.0
    assert read_csv(out)[0]["method"] == "stratified"

    cfg = SimConfig(p=1e-2, d_plus=4, trials=1, master_seed=5, strategy="stratified")
    res = failure_probability(default_product_code(), cfg, per_stratum=3)
    assert res.estimate.denominator > 10**5000  # kept exact
    assert float(res.estimate) == row["estimate"]
    assert "estimate=" in repr(res)


@pytest.mark.parametrize("which, grid, header", [
    (1, ["--codes", "eh5", "--rhos", ""], "code,r,n,rho,method,value,reference,deviation"),
    (2, ["--p", ""], "p,d_plus,method,trials,failures,estimate,ci95,tail_bound,reference,deviation"),
])
def test_empty_grid_writes_header_and_no_rows(tmp_path, which, grid, header):
    out = tmp_path / "t.csv"
    assert main(["table", "--which", str(which), *grid, "--out", str(out)]) == 0
    assert out.read_bytes() == header.encode() + b"\r\n"
    sidecar = Path(str(out) + ".json").read_bytes()
    assert sidecar == b'{\n  "table": %d,\n  "rows": []\n}\n' % which


def test_every_command_emits_manifest(tmp_path):
    out = tmp_path / "pan5.txt"
    main(["construct", "--family", "panchenko", "--r", "5", "--out", str(out)])
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["params"]["family"] == "panchenko"
    assert manifest["params"]["r"] == 5
    assert str(out) in manifest["outputs"]
    assert str(out) + ".json" in manifest["outputs"]


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
