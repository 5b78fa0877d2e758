import csv
import json
from pathlib import Path

import pytest

from efix import solvers
from efix.cli import main
from efix.problems import QuadraticProblem
from efix.topology import generate_geometric_graph, mixing_from_json


LOGISTIC = {"family": "logistic", "N": 4, "T": 24, "n": 3, "seed": 5, "mu": 1e-2}


def write_config(path, **cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def base_config(tmp_path, algo="efix-q", budget=None, name="cfg.json", **extra):
    cfg = {
        "problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2},
        "network": {"N": 6, "seed": 11},
        "algorithm": {"name": algo},
        "budget": budget or {"rounds": 40},
        "out": str(tmp_path / "trace.csv"),
    }
    cfg.update(extra)
    return write_config(tmp_path / name, **cfg)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestGen:
    def test_files_and_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "g.json",
                           problem={"family": "quadratic", "N": 5, "n": 2, "seed": 3},
                           network={"N": 5, "seed": 4},
                           out=str(tmp_path / "inst"))
        assert main(["gen", "--config", cfg]) == 0
        prob_text = (tmp_path / "inst.problem.json").read_text()
        net_text = (tmp_path / "inst.network.json").read_text()
        p = QuadraticProblem.from_json(prob_text)
        assert p.to_json() == prob_text
        w = mixing_from_json(net_text)
        assert w.node_count == 5
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["mu"] <= echoed["L"]
        assert 0 <= echoed["lambda2"] < 1

    def test_deterministic_files(self, tmp_path):
        for sub in ("a", "b"):
            cfg = write_config(tmp_path / f"{sub}.json",
                               problem={"family": "quadratic", "N": 5, "n": 2, "seed": 3},
                               network={"N": 5, "seed": 4},
                               out=str(tmp_path / sub))
            assert main(["gen", "--config", cfg]) == 0
        assert (tmp_path / "a.problem.json").read_bytes() == (tmp_path / "b.problem.json").read_bytes()
        assert (tmp_path / "a.network.json").read_bytes() == (tmp_path / "b.network.json").read_bytes()

    def test_logistic_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "g.json",
                           problem={"family": "logistic", "N": 3, "T": 9, "n": 2,
                                    "seed": 0, "mu": 1e-2},
                           network={"N": 3, "seed": 1},
                           out=str(tmp_path / "x"))
        assert main(["gen", "--config", cfg]) == 1


class TestRun:
    def test_zero_round_budget_emits_single_row(self, tmp_path):
        cfg = base_config(tmp_path, budget={"rounds": 0})
        assert main(["run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "trace.csv")
        assert len(rows) == 1
        assert rows[0]["round"] == "0" and rows[0]["outer_s"] == "0"

    def test_header_columns(self, tmp_path):
        cfg = base_config(tmp_path, budget={"rounds": 5})
        main(["run", "--config", cfg])
        header = Path(tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == ("round,outer_s,theta,epsilon,error_e,error_v,"
                          "consensus_residual,cum_sp_max,cum_vectors_sent")

    def test_diging_cost_steps(self, tmp_path):
        cfg = base_config(tmp_path, algo="diging", budget={"rounds": 12},
                          algorithm={"name": "diging", "m": 20})
        assert main(["run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "trace.csv")
        sp = [int(r["cum_sp_max"]) for r in rows]
        n = 3
        assert all(b - a == 3 * n for a, b in zip(sp, sp[1:]))
        assert rows[1]["theta"] == "" and rows[1]["epsilon"] == ""

    def test_efix_vectors_per_round(self, tmp_path):
        cfg = base_config(tmp_path, budget={"rounds": 15})
        assert main(["run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "trace.csv")
        g = generate_geometric_graph(6, 11)
        total_degree = sum(g.degree(i) for i in range(6))
        by_round = {}
        for r in rows:
            by_round[int(r["round"])] = int(r["cum_vectors_sent"])
        for R, sent in by_round.items():
            assert sent == R * total_degree

    def test_byte_identical_reruns(self, tmp_path):
        cfg = base_config(tmp_path, budget={"rounds": 25})
        main(["run", "--config", cfg])
        first = (tmp_path / "trace.csv").read_bytes()
        main(["run", "--config", cfg])
        assert (tmp_path / "trace.csv").read_bytes() == first

    def test_sidecar_metadata(self, tmp_path):
        cfg = base_config(tmp_path, budget={"rounds": 5})
        main(["run", "--config", cfg])
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["algo"] == "efix-q"
        assert meta["N"] == 6 and meta["n"] == 3
        assert not meta["diverged"]

    def test_unknown_algorithm_is_config_error(self, tmp_path):
        cfg = base_config(tmp_path)
        assert main(["run", "--config", cfg, "--algo", "efix-q"]) == 0
        cfg2 = write_config(tmp_path / "bad.json",
                            problem={"family": "quadratic", "N": 4, "n": 2, "seed": 1},
                            network={"N": 4, "seed": 1},
                            algorithm={"name": "sgd"},
                            budget={"rounds": 3},
                            out=str(tmp_path / "t.csv"))
        assert main(["run", "--config", cfg2]) == 1

    def test_missing_budget_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "nb.json",
                           problem={"family": "quadratic", "N": 4, "n": 2, "seed": 1},
                           network={"N": 4, "seed": 1},
                           algorithm={"name": "efix-q"},
                           out=str(tmp_path / "t.csv"))
        assert main(["run", "--config", cfg]) == 1

    def test_negative_budget_is_config_error(self, tmp_path, capsys):
        for key in ("rounds", "outer", "scalar_products"):
            cfg = base_config(tmp_path, budget={key: -5})
            assert main(["run", "--config", cfg]) == 1
            err = capsys.readouterr().err
            assert err == f"error: budget limit {key} must be nonnegative, got -5\n"
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("schedule, message", [
        ({"q_safety": 5}, "unknown schedule field 'q_safety'"),
        ({"q_mod": "fixed"}, "unknown schedule field 'q_mod'"),
        ({"theta_rule": "geometric"}, "unknown theta rule 'geometric'"),
        ({"eps_rule": "nope"}, "unknown eps rule 'nope'"),
    ])
    def test_bad_schedule_is_config_error(self, tmp_path, capsys, schedule, message):
        cfg = base_config(tmp_path, schedule=schedule)
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("section, fragment", [
        ({"schedule": {"theta0": 1e-9}}, "kappa/2"),
        ({"problem": LOGISTIC, "network": {"N": 4, "seed": 6}}, "efix_g"),
        ({"problem": {"family": "logistic", "path": "{tmp}/absent.svm", "N": 6, "seed": 1}},
         "{tmp}/absent.svm"),
        ({"problem": {"problem_file": "{tmp}/absent.problem.json"}}, "{tmp}/absent.problem.json"),
        ({"network": {"network_file": "{tmp}/absent.network.json"}}, "{tmp}/absent.network.json"),
        ({"out": "{tmp}/absent/trace.csv"}, "{tmp}/absent"),
        ({"budget": {"rounds": "abc"}}, "rounds"),
        ({"algorithm": {"name": "diging", "m": 0}}, "algorithm m"),
        ({"algorithm": {"name": "diging", "m": -1}}, "algorithm m"),
        ({"algorithm": {"name": "diging"}, "budget": {"outer": 2}}, "outer"),
        ({"problem": {"family": "quadratic", "N": 1, "n": 3, "seed": 2},
          "network": {"N": 1, "seed": 11}}, "two nodes"),
        ({"schedule": {"eps0": "abc"}}, "eps0"),
        ({"schedule": {"theta0": None}}, "theta0"),
        ({"problem": dict(LOGISTIC, T=3), "network": {"N": 4, "seed": 6},
          "algorithm": {"name": "efix-g"}}, "cannot split"),
        ({"problem": dict(LOGISTIC, mu=-1), "network": {"N": 4, "seed": 6},
          "algorithm": {"name": "efix-g"}}, "mu"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2, "spectrum": [5]}},
         "spectrum"),
        ({"problem": [1]}, "problem"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 0, "seed": 2}}, "problem n"),
        ({"problem": dict(LOGISTIC, n=0), "network": {"N": 4, "seed": 6},
          "algorithm": {"name": "efix-g"}}, "problem n"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2, "spectrum": [5, -1]}},
         "spectrum"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2, "spectrum": [0, 0]}},
         "spectrum"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2, "spectrum": ["a", 1]}},
         "spectrum"),
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, section, fragment):
        section = json.loads(json.dumps(section).replace("{tmp}", str(tmp_path)))
        cfg = base_config(tmp_path, **section)
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert fragment.replace("{tmp}", str(tmp_path)) in err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("key, text, fragment", [
        ("problem_file", '{"B": 1}', "needs field 'n'"),
        ("problem_file", "[1]", "JSON object"),
        ("network_file", '{"weights": 1}', "needs field 'n'"),
        ("network_file", '{"n": 6, "edges": [[0, 1]]}', "needs field 'weights'"),
        ("network_file", '{"n": 6, "edges": [[0, 1]], "weights": [], "diag": []}',
         "no weight for edge (0, 1)"),
    ], ids=["problem-without-n", "problem-not-object", "network-without-n",
            "network-without-weights", "network-edge-without-weight"])
    def test_bad_input_file_is_one_error_line(self, tmp_path, capsys, key, text, fragment):
        path = tmp_path / "input.json"
        path.write_text(text)
        section = "problem" if key == "problem_file" else "network"
        cfg = base_config(tmp_path, **{section: {key: str(path)}})
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err
        assert not (tmp_path / "trace.csv").exists()

    def test_missing_out_directory_fails_before_solving(self, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solver ran")
        monkeypatch.setattr(solvers, "efix_q", no_solve)
        cfg = base_config(tmp_path, out=str(tmp_path / "absent" / "trace.csv"))
        assert main(["run", "--config", cfg]) == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "cfg.json", "--budget-rounds", "abc"],
        ["frobnicate"],
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_divergence_exit_code(self, tmp_path):
        # DIGing with 1/(10 L) diverges on this instance (measured)
        cfg = write_config(tmp_path / "d.json",
                           problem={"family": "quadratic", "N": 6, "n": 3, "seed": 16},
                           network={"N": 6, "seed": 316},
                           algorithm={"name": "diging", "m": 10},
                           budget={"rounds": 5000},
                           out=str(tmp_path / "t.csv"))
        assert main(["run", "--config", cfg]) == 2

    def test_flag_overrides(self, tmp_path):
        cfg = base_config(tmp_path, budget={"rounds": 999})
        out2 = tmp_path / "other.csv"
        assert main(["run", "--config", cfg, "--out", str(out2),
                     "--budget-rounds", "7"]) == 0
        rows = read_rows(out2)
        assert rows[-1]["round"] == "7"

    def test_seed_override_changes_instance(self, tmp_path):
        cfg = base_config(tmp_path, budget={"rounds": 3})
        main(["run", "--config", cfg])
        base_hash = json.loads((tmp_path / "trace.csv.meta.json").read_text())["problem_hash"]
        main(["run", "--config", cfg, "--seed", "77"])
        new_hash = json.loads((tmp_path / "trace.csv.meta.json").read_text())["problem_hash"]
        assert new_hash != base_hash

    def test_logistic_synthetic_run(self, tmp_path):
        cfg = write_config(tmp_path / "l.json",
                           problem={"family": "logistic", "N": 4, "T": 24, "n": 3,
                                    "seed": 5, "mu": 1e-2},
                           network={"N": 4, "seed": 6},
                           algorithm={"name": "efix-g"},
                           budget={"outer": 2},
                           out=str(tmp_path / "t.csv"))
        assert main(["run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "t.csv")
        assert len(rows) > 2

    def test_problem_file_reload(self, tmp_path):
        gen_cfg = write_config(tmp_path / "g.json",
                               problem={"family": "quadratic", "N": 5, "n": 2, "seed": 3},
                               network={"N": 5, "seed": 4},
                               out=str(tmp_path / "inst"))
        assert main(["gen", "--config", gen_cfg]) == 0
        run_cfg = write_config(tmp_path / "r.json",
                               problem={"problem_file": str(tmp_path / "inst.problem.json")},
                               network={"network_file": str(tmp_path / "inst.network.json")},
                               algorithm={"name": "efix-q"},
                               budget={"rounds": 5},
                               out=str(tmp_path / "t.csv"))
        assert main(["run", "--config", run_cfg]) == 0


class TestCompare:
    def run_pair(self, tmp_path, rounds=20):
        pa = tmp_path / "efix.csv"
        pb = tmp_path / "diging.csv"
        shared = dict(problem={"family": "quadratic", "N": 6, "n": 3, "seed": 2},
                      network={"N": 6, "seed": 11},
                      budget={"rounds": rounds})
        cfg_a = write_config(tmp_path / "a.json", algorithm={"name": "efix-q"},
                             out=str(pa), **shared)
        cfg_b = write_config(tmp_path / "b.json", algorithm={"name": "diging", "m": 20},
                             out=str(pb), **shared)
        assert main(["run", "--config", cfg_a]) == 0
        assert main(["run", "--config", cfg_b]) == 0
        return pa, pb

    def test_ratio_column_half(self, tmp_path):
        pa, pb = self.run_pair(tmp_path)
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(pa), str(pb), "--out", str(out)]) == 0
        rows = read_rows(out)
        round_rows = [r for r in rows if r["section"] == "round" and int(float(r["key"])) >= 1]
        assert round_rows
        for r in round_rows:
            assert float(r["vectors_ratio__1_diging"]) == 0.5

    def test_three_sections_present(self, tmp_path):
        pa, pb = self.run_pair(tmp_path, rounds=10)
        out = tmp_path / "cmp.csv"
        main(["compare", str(pa), str(pb), "--out", str(out)])
        sections = {r["section"] for r in read_rows(out)}
        assert sections == {"round", "scalar_products", "vectors_sent"}

    def test_self_compare_identity(self, tmp_path):
        pa, _ = self.run_pair(tmp_path, rounds=10)
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(pa), str(pa), "--out", str(out)]) == 0
        for r in read_rows(out):
            if r["section"] != "round":
                continue
            for field in ("error_e", "cum_sp_max", "cum_vectors_sent"):
                assert r[f"{field}__0_efix-q"] == r[f"{field}__1_efix-q"]
            if r["vectors_ratio__1_efix-q"]:
                assert float(r["vectors_ratio__1_efix-q"]) == 1.0

    def test_mismatched_problems_rejected(self, tmp_path):
        pa, _ = self.run_pair(tmp_path, rounds=5)
        other_cfg = write_config(tmp_path / "c.json",
                                 problem={"family": "quadratic", "N": 6, "n": 3, "seed": 99},
                                 network={"N": 6, "seed": 11},
                                 algorithm={"name": "efix-q"},
                                 budget={"rounds": 5},
                                 out=str(tmp_path / "other.csv"))
        assert main(["run", "--config", other_cfg]) == 0
        assert main(["compare", str(pa), str(tmp_path / "other.csv"),
                     "--out", str(tmp_path / "cmp.csv")]) == 1

    def test_needs_two_traces(self, tmp_path):
        pa, _ = self.run_pair(tmp_path, rounds=5)
        assert main(["compare", str(pa), "--out", str(tmp_path / "c.csv")]) == 1

    def test_missing_sidecar_is_one_error_line(self, tmp_path, capsys):
        pa, pb = self.run_pair(tmp_path, rounds=5)
        Path(str(pb) + ".meta.json").unlink()
        assert main(["compare", str(pa), str(pb), "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(pb) + ".meta.json" in err

    @pytest.mark.parametrize("sidecar, header, fragment", [
        ("{}", None, "needs field 'algo'"),
        ('{"algo": "diging"}', None, "needs field 'problem_hash'"),
        ("[]", None, "needs field 'algo'"),
        (None, "round", "needs column 'error_e'"),
    ], ids=["empty-sidecar", "sidecar-without-hash", "sidecar-not-object", "trace-round-only"])
    def test_malformed_trace_is_one_error_line(self, tmp_path, capsys, sidecar, header,
                                               fragment):
        pa, pb = self.run_pair(tmp_path, rounds=5)
        if sidecar is not None:
            Path(str(pb) + ".meta.json").write_text(sidecar)
        if header is not None:
            pb.write_text(header + "\n0\n")
        assert main(["compare", str(pa), str(pb), "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err and str(pb) in err

    def test_cost_sections_carry_each_trace_forward(self, tmp_path):
        pa, pb = self.run_pair(tmp_path, rounds=60)
        # a diging trace whose first rows are cut, so its columns start blank
        late = tmp_path / "late.csv"
        lines = pb.read_text().splitlines(keepends=True)
        late.write_text(lines[0] + "".join(lines[11:]))
        Path(str(late) + ".meta.json").write_text(Path(str(pb) + ".meta.json").read_text())
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(pa), str(late), "--out", str(out)]) == 0
        traces = {"0_efix-q": read_rows(pa), "1_diging": read_rows(late)}
        key_cols = {"scalar_products": "cum_sp_max", "vectors_sent": "cum_vectors_sent"}
        blanks = checked = 0
        for row in read_rows(out):
            if row["section"] not in key_cols:
                continue
            key = int(row["key"])
            last = {}
            for label, rows in traces.items():
                before = [r for r in rows if int(r[key_cols[row["section"]]]) <= key]
                last[label] = before[-1] if before else None
                for field in ("error_e", "error_v", "cum_sp_max", "cum_vectors_sent"):
                    cell = row[f"{field}__{label}"]
                    if last[label] is None:
                        assert cell == ""
                        blanks += 1
                    else:
                        assert float(cell) == float(last[label][field])
                checked += 1
            base, rec = last["0_efix-q"], last["1_diging"]
            ratio = row["vectors_ratio__1_diging"]
            if base is None or rec is None or not int(rec["cum_vectors_sent"]):
                assert ratio == ""
            else:
                assert float(ratio) == int(base["cum_vectors_sent"]) / int(rec["cum_vectors_sent"])
        assert checked > 100 and blanks > 0
