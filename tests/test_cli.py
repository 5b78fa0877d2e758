import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from efix import problems, solvers
from efix.analysis import TraceRecord
from efix.cli import ALGORITHMS, TRACE_COLUMNS, main, write_trace_csv
from efix.problems import QuadraticProblem
from efix.topology import generate_geometric_graph, metropolis_weights, mixing_from_json


LOGISTIC = {"family": "logistic", "N": 4, "T": 24, "n": 3, "seed": 5, "mu": 1e-2}


def write_config(path, **cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def base_config(tmp_path, algo="efix-q", budget=None, name="cfg.json", **extra):
    cfg = {
        "problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2},
        "network": {"seed": 11},
        "algorithm": {"name": algo},
        "budget": budget or {"rounds": 40},
        "out": str(tmp_path / "trace.csv"),
    }
    cfg.update(extra)
    return write_config(tmp_path / name, **cfg)


def path3_network(n=3, edges=([0, 1], [1, 2]), weights=([0, 1, 0.5], [1, 2, 0.5]),
                  diag=(0.5, 0.0, 0.5)):
    """A network file's text: by default the path 0-1-2 with its Metropolis weights."""
    return json.dumps({"n": n, "edges": list(edges), "weights": list(weights),
                       "diag": list(diag)})


# middle-edge weights of the path 0-1-2-3 that leave W's eigenvalue 1 double (gap 0.0)
CUT_WEIGHTS = (0, 1e-17)
# a middle weight whose gap 2.2e-16 is below what eigvalsh resolves
ROUNDING_WEIGHT = 1e-16


def cut_path4_network(weight):
    """A network file's text: the path 0-1-2-3 whose middle edge weighs ``weight``."""
    return path3_network(n=4, edges=[[0, 1], [1, 2], [2, 3]],
                         weights=[[0, 1, 0.5], [1, 2, weight], [2, 3, 0.5]],
                         diag=[0.5, 0.5 - weight, 0.5 - weight, 0.5])


def identity_problem(B=((1.0, 0.0, 0.0, 1.0),) * 3, b=((0.0, 1.0),) * 3, n=2):
    """A problem file's text: by default N=3 nodes of B_ii = I and n=2."""
    return json.dumps({"n": n, "N": 3, "B": list(B), "b": list(b)})


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestGen:
    def test_files_and_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "g.json",
                           problem={"family": "quadratic", "N": 5, "n": 2, "seed": 3},
                           network={"seed": 4},
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
        assert echoed["gap"] == w.gap and echoed["gap"] >= 1 - echoed["lambda2"]

    def test_deterministic_files(self, tmp_path):
        for sub in ("a", "b"):
            cfg = write_config(tmp_path / f"{sub}.json",
                               problem={"family": "quadratic", "N": 5, "n": 2, "seed": 3},
                               network={"seed": 4},
                               out=str(tmp_path / sub))
            assert main(["gen", "--config", cfg]) == 0
        assert (tmp_path / "a.problem.json").read_bytes() == (tmp_path / "b.problem.json").read_bytes()
        assert (tmp_path / "a.network.json").read_bytes() == (tmp_path / "b.network.json").read_bytes()

    def test_logistic_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "g.json",
                           problem={"family": "logistic", "N": 3, "T": 9, "n": 2,
                                    "seed": 0, "mu": 1e-2},
                           network={"seed": 1},
                           out=str(tmp_path / "x"))
        assert main(["gen", "--config", cfg]) == 1


class TestRun:
    def test_zero_round_budget_emits_single_row(self, tmp_path):
        cfg = base_config(tmp_path, budget={"rounds": 0})
        assert main(["run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "trace.csv")
        assert len(rows) == 1
        assert rows[0]["round"] == "0" and rows[0]["outer_s"] == "0"

    def test_trace_csv_is_the_csv_writer_text(self, tmp_path):
        # the one-string writer against csv.writer: None is an empty cell,
        # integers go through int() and other numbers through repr(float())
        def cell(v):
            if v is None:
                return ""
            return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))

        cells = [None, 0, 7, np.int64(-3), np.int32(2**31 - 1), 0.1, np.float64(1 / 3),
                 5e-324, -0.0, float("inf"), -np.inf, float("nan"), np.float32(0.1), 1e300]
        # runs of four rows that share theta, next to runs of an equal value in another type
        thetas = [None, 2.5, np.float64(2.5), 0, 0.0, -0.0, np.int64(0), 2.5]
        records = [TraceRecord(round=i, outer_s=i // 4, theta=thetas[i // 4 % len(thetas)],
                               epsilon=cells[i % len(cells)], error_e=cells[(i + 1) % len(cells)],
                               error_v=cells[(i + 2) % len(cells)],
                               consensus_residual=cells[(i + 3) % len(cells)],
                               cum_sp_max=cells[(i + 4) % len(cells)],
                               cum_vectors_sent=np.int64(i))
                   for i in range(3 * len(cells))]
        # Python floats and ints alone, as a solver's rows hold them
        plain = [TraceRecord(round=i, outer_s=1, theta=2.5, epsilon=1e-3, error_e=i / 7,
                             error_v=-i / 3, consensus_residual=0.0, cum_sp_max=5 * i,
                             cum_vectors_sent=7 * i) for i in range(5)]
        for rows in (records, plain, []):
            trace = solvers.Trace(algo="x", problem_hash="h", node_count=1, dim=1, records=rows)
            write_trace_csv(trace, tmp_path / "t.csv")
            with open(tmp_path / "ref.csv", "w", newline="") as fh:
                out = csv.writer(fh, lineterminator="\n")
                out.writerow(TRACE_COLUMNS)
                for r in rows:
                    out.writerow([cell(getattr(r, c)) for c in TRACE_COLUMNS])
            assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

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
        total_degree = sum(len(g[i]) for i in range(6))
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
        # the gap that eps_s and the Chebyshev interval read, in place of the modulus
        assert meta["meta"]["gap"] == metropolis_weights(generate_geometric_graph(6, 11)).gap
        assert "lambda2" not in meta["meta"]

    @pytest.mark.parametrize("algo", ["efix-q", "efix-g", "efix-q-stopping"])
    def test_two_node_network_runs(self, tmp_path, algo):
        # W = [[0, 1], [1, 0]]: the modulus lambda2 is 1, the gap 2
        cfg = base_config(tmp_path, algo=algo, budget={"rounds": 200},
                          problem={"family": "quadratic", "N": 2, "n": 3, "seed": 2})
        assert main(["run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "trace.csv")
        assert len(rows) > 1 and float(rows[-1]["error_e"]) < float(rows[0]["error_e"])
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["meta"]["gap"] == 2.0

    def test_unknown_algorithm_is_config_error(self, tmp_path):
        cfg = base_config(tmp_path)
        assert main(["run", "--config", cfg, "--algo", "efix-q"]) == 0
        cfg2 = write_config(tmp_path / "bad.json",
                            problem={"family": "quadratic", "N": 4, "n": 2, "seed": 1},
                            network={"seed": 1},
                            algorithm={"name": "sgd"},
                            budget={"rounds": 3},
                            out=str(tmp_path / "t.csv"))
        assert main(["run", "--config", cfg2]) == 1

    def test_missing_budget_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "nb.json",
                           problem={"family": "quadratic", "N": 4, "n": 2, "seed": 1},
                           network={"seed": 1},
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

    def test_nan_budget_is_config_error(self, tmp_path, capsys):
        # json.loads accepts NaN; the scalar-product cap ends a run that slips through
        cfg = tmp_path / "nan.json"
        cfg.write_text(Path(base_config(tmp_path)).read_text().replace(
            '"budget": {"rounds": 40}', '"budget": {"rounds": NaN, "scalar_products": 200}'))
        assert "NaN" in cfg.read_text()
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: budget limit rounds must be finite, got nan\n"
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("algo", ["efix-q", "diging"])
    def test_run_computes_the_constants_once(self, tmp_path, monkeypatch, algo):
        calls = []
        real = problems.quadratic_constants
        monkeypatch.setattr(problems, "quadratic_constants",
                            lambda p: calls.append(p) or real(p))
        assert main(["run", "--config", base_config(tmp_path, algo=algo)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("schedule, message", [
        ({"q_safety": 5}, "unknown schedule field 'q_safety'"),
        ({"q_mod": "fixed"}, "unknown schedule field 'q_mod'"),
        ({"theta_rule": "geometric"}, "unknown theta rule 'geometric'"),
        ({"eps_rule": "balance"}, "unknown schedule field 'eps_rule'"),
    ])
    def test_bad_schedule_is_config_error(self, tmp_path, capsys, schedule, message):
        cfg = base_config(tmp_path, schedule=schedule)
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("section, fragment", [
        ({"schedule": {"theta0_multiplier": 1e-9}}, "kappa/2"),
        ({"problem": LOGISTIC, "network": {"seed": 6}}, "efix_g"),
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
          "network": {"seed": 11}}, "two nodes"),
        ({"schedule": {"eps0": "abc"}}, "unknown schedule field 'eps0'"),
        ({"schedule": {"theta0_multiplier": None}}, "theta0"),
        ({"problem": dict(LOGISTIC, T=3), "network": {"seed": 6},
          "algorithm": {"name": "efix-g"}}, "cannot split"),
        ({"problem": dict(LOGISTIC, mu=-1), "network": {"seed": 6},
          "algorithm": {"name": "efix-g"}}, "mu"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2, "spectrum": [5]}},
         "spectrum"),
        ({"problem": [1]}, "problem"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 0, "seed": 2}}, "problem n"),
        ({"problem": dict(LOGISTIC, n=0), "network": {"seed": 6},
          "algorithm": {"name": "efix-g"}}, "problem n"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2, "spectrum": [5, -1]}},
         "spectrum"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2, "spectrum": [0, 0]}},
         "spectrum"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2, "spectrum": ["a", 1]}},
         "spectrum"),
        ({"problem": dict(LOGISTIC, mu=float("nan")), "network": {"seed": 6},
          "algorithm": {"name": "efix-g"}}, "mu must be finite and positive, got nan"),
        ({"problem": dict(LOGISTIC, mu=float("inf")), "network": {"seed": 6},
          "algorithm": {"name": "efix-g"}}, "mu must be finite and positive, got inf"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2,
                      "spectrum": [1, float("inf")]}}, "high < inf, got [1, inf]"),
        ({"budget": {"rounds": 5, "outr": 3}}, "unknown budget field 'outr'"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2, "shift_range": [0, 1]}},
         "unknown problem field 'shift_range'"),
        ({"network": {"seed": 11, "radius": 0.5}}, "unknown network field 'radius'"),
        ({"algorithm": {"name": "diging", "alpha": 0.1}}, "unknown algorithm field 'alpha'"),
        ({"seeds": 3}, "unknown config field 'seeds'"),
        ({"problem": {"family": "quadratic", "N": 6.7, "n": 3, "seed": 2}},
         "problem N must be an integer, got 6.7"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2.9}},
         "problem seed must be an integer, got 2.9"),
        ({"network": {"seed": 11.5}}, "network seed must be an integer, got 11.5"),
        ({"algorithm": {"name": "diging", "m": 2.5}}, "algorithm m must be an integer, got 2.5"),
        ({"problem": dict(LOGISTIC, T=True), "network": {"seed": 6},
          "algorithm": {"name": "efix-g"}}, "problem T must be an integer, got True"),
        ({"schedule": {"theta0": 50.0, "theta0_multiplier": 3.0}},
         "unknown schedule field 'theta0'"),
        ({"budget": {"rounds": 5.5}}, "budget limit rounds must be an integer, got 5.5"),
        ({"problem": dict(LOGISTIC, mu=True), "network": {"seed": 6},
          "algorithm": {"name": "efix-g"}}, "mu must be a number, got True"),
        ({"problem": dict(LOGISTIC, mu="0.01"), "network": {"seed": 6},
          "algorithm": {"name": "efix-g"}}, "mu must be a number, got '0.01'"),
        # refused before the file is read
        ({"problem": {"problem_file": "{tmp}/inst.problem.json", "family": "logistic", "N": 99}},
         "problem problem_file takes no other field, got ['N', 'family', 'problem_file']"),
        ({"network": {"network_file": "{tmp}/inst.network.json", "seed": 3}},
         "network network_file takes no other field, got ['network_file', 'seed']"),
        ({"schedule": {"theta0_multiplier": float("nan")}},
         "theta0 must be finite and positive, got nan"),
        ({"schedule": {"theta0_multiplier": float("inf")}},
         "theta0 must be finite and positive, got inf"),
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2, "spectrum": 5}},
         "problem spectrum must be [low, high], got 5"),
        ({"out": 5}, "config out must be a string, got 5"),
        # a theta0 near the float limit leaves no contraction rate below 1
        *[({"schedule": {"theta0_multiplier": mult}, "algorithm": {"name": algo}},
           f"penalty stage at theta={theta} has no certified contraction rate below 1 "
           f"(rate {rate})")
          for mult, theta, rate in ((1e300, "9.83679e+301", "1.0"),
                                    (1e306, "9.83679e+307", "nan"))
          for algo in ("efix-q", "efix-g", "efix-q-stopping")],
        # a generated network takes the problem's node count
        ({"network": {"N": 6, "seed": 11}}, "unknown network field 'N'"),
        # every 2-node W has the eigenvalue -1
        ({"problem": {"family": "quadratic", "N": 2, "n": 3, "seed": 2},
          "algorithm": {"name": "diging"}}, "DIGing needs lambda2 < 1, got lambda2=1.0"),
        # a W without a positive gap is refused where it is built, before any algorithm runs
        *[({"problem": {"family": "quadratic", "N": 4, "n": 3, "seed": 2},
            "network": {"network_file": f"{{tmp}}/cut-{weight}.network.json"},
            "algorithm": {"name": algo}}, "mixing matrix has no spectral gap: 1 - lambda_2 = 0.0")
          for weight in CUT_WEIGHTS for algo in ALGORITHMS],
        # each problem source takes only the fields it reads
        ({"problem": {"family": "quadratic", "N": 6, "n": 3, "seed": 2, "mu": 5, "T": 9}},
         "a quadratic problem takes no field 'mu', 'T'"),
        ({"problem": {"family": "logistic", "path": "{tmp}/absent.svm", "N": 6, "seed": 1,
                      "T": 999, "n": 7}}, "a logistic path problem takes no field 'T', 'n'"),
        ({"problem": dict(LOGISTIC, spectrum=[1, 2]), "network": {"seed": 6},
          "algorithm": {"name": "efix-g"}}, "a logistic problem takes no field 'spectrum'"),
        *[({"problem": {"family": "quadratic", "N": 4, "n": 3, "seed": 2},
            "network": {"network_file": f"{{tmp}}/cut-{ROUNDING_WEIGHT}.network.json"},
            "algorithm": {"name": algo}},
           "mixing matrix has no spectral gap: 1 - lambda_2 = 2.220446049250313e-16 is at most "
           "N eps = 8.881784197001252e-16") for algo in ALGORITHMS],
        # every b_i zero gives y* = 0, where error_e's relative error is undefined
        *[({"problem": {"problem_file": "{tmp}/zero.problem.json"}, "algorithm": {"name": algo}},
           "oracle solution is zero; relative error undefined") for algo in ALGORITHMS],
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, section, fragment):
        for weight in CUT_WEIGHTS + (ROUNDING_WEIGHT,):
            (tmp_path / f"cut-{weight}.network.json").write_text(cut_path4_network(weight))
        (tmp_path / "zero.problem.json").write_text(identity_problem(b=((0.0, 0.0),) * 3))
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
        ("network_file", path3_network(edges=[[0, 1], [1, 2], [0, 1]]), "appears twice"),
        ("network_file", path3_network(edges=[[0, 1], [1, 2], [1, 1]],
                                       weights=[[0, 1, 0.5], [1, 2, 0.5], [1, 1, 0.0]]),
         "self loop at node 1"),
        ("network_file", path3_network(edges=[[0, 1], [1, 3]]), "[1, 3] must join"),
        ("network_file", path3_network(edges=[[0, 1], [-1, 2]]), "[-1, 2] must join"),
        ("network_file", path3_network(diag=[0.5, 0.0]), "'diag' needs 3 entries"),
        ("network_file", path3_network(n=4, diag=[0.5, 0.0, 0.5, 1.0]), "not connected"),
        ("network_file", path3_network(n=3.5),
         "field 'n' must be an integer of at least 2, got 3.5"),
        ("network_file", path3_network(edges=[[0, 1.0], [1, 2]]), "field 'edges': [0, 1.0]"),
        ("network_file", path3_network(edges=[[0, True], [1, 2]]), "field 'edges': [0, true]"),
        ("network_file", path3_network(weights=[[0, 1, 0.5], [1, 2, 0.5], [0, 2, 0.3]]),
         "field 'weights': [0, 2, 0.3] names no edge"),
        ("network_file", path3_network(weights=[[0, 1, 0.5], [1, 2, 0.5], [1, 0, 0.5]]),
         "field 'weights' names edge (0, 1) twice"),
        ("network_file", path3_network(weights=[[0, 1, float("nan")], [1, 2, 0.5]]),
         "field 'weights': [0, 1, NaN] needs a finite weight"),
        ("network_file", path3_network(diag=[0.5, float("inf"), 0.5]),
         "field 'diag' needs finite numbers"),
        ("network_file", path3_network(diag=[0.5, "0", 0.5]), "field 'diag' needs finite numbers"),
        ("network_file", '{"n": 3, "edges": 5, "weights": [], "diag": [0.5, 0.0, 0.5]}',
         "field 'edges' must be a list"),
        ("problem_file", identity_problem(B=[[1.0, 0.0, 0.0, float("nan")]] * 3),
         "field 'B' has a non-finite"),
        ("problem_file", identity_problem(b=[[0.0, float("inf")]] * 3),
         "field 'b' has a non-finite"),
        ("problem_file", identity_problem(B=[[1.0, 0.5, 0.0, 1.0]] * 3),
         "non-symmetric block 0"),
        ("problem_file", identity_problem(B=[[-1.0, 0.0, 0.0, -1.0]] * 3),
         "field 'B' is not positive definite"),
        ("network_file", path3_network(n=1, edges=[], weights=[], diag=[1.0]),
         "field 'n' must be an integer of at least 2, got 1"),
        ("problem_file", identity_problem(n=2.5), "must be integers, got 2.5 and 3"),
        ("network_file", path3_network(), "network_file has 3 nodes, the problem 6"),
    ], ids=["problem-without-n", "problem-not-object", "network-without-n",
            "network-without-weights", "network-edge-without-weight",
            "network-duplicate-edge", "network-self-loop", "network-id-above-n",
            "network-negative-id", "network-short-diag", "network-unused-node",
            "network-fractional-n", "network-float-id", "network-bool-id",
            "network-weight-off-edge", "network-weight-twice", "network-nan-weight",
            "network-infinite-diag", "network-text-diag", "network-edges-not-list",
            "problem-nan-entry", "problem-infinite-shift", "problem-non-symmetric",
            "problem-negative-definite", "network-one-node", "problem-fractional-n",
            "network-node-count"])
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
        ["run", "--config", "{cfg}", "--algo", "sgd"],
        ["frobnicate"],
        # the config holds every experiment value; no flag gives one a second source
        ["run", "--config", "{cfg}", "--seed", "3"],
        ["run", "--config", "{cfg}", "--m", "7"],
        ["run", "--config", "{cfg}", "--budget-rounds", "50"],
        ["run", "--config", "{cfg}", "--budget-outer", "2"],
        ["gen", "--config", "{cfg}", "--algo", "diging"],
    ])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        cfg = base_config(tmp_path, out=str(tmp_path / "inst"))
        with pytest.raises(SystemExit) as exc:
            main([cfg if arg == "{cfg}" else arg for arg in argv])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_divergence_exit_code(self, tmp_path):
        # DIGing with 1/(10 L) diverges on this instance (measured)
        cfg = write_config(tmp_path / "d.json",
                           problem={"family": "quadratic", "N": 6, "n": 3, "seed": 16},
                           network={"seed": 316},
                           algorithm={"name": "diging", "m": 10},
                           budget={"rounds": 5000},
                           out=str(tmp_path / "t.csv"))
        assert main(["run", "--config", cfg]) == 2

    def test_flag_overrides(self, tmp_path):
        cfg = base_config(tmp_path, budget={"rounds": 7})
        out2 = tmp_path / "other.csv"
        assert main(["run", "--config", cfg, "--out", str(out2), "--algo", "diging"]) == 0
        assert read_rows(out2)[-1]["round"] == "7"
        assert not (tmp_path / "trace.csv").exists()
        meta = json.loads(Path(str(out2) + ".meta.json").read_text())
        assert meta["algo"] == "diging"
        assert meta["config"]["out"] == str(out2)
        assert meta["config"]["algorithm"] == {"name": "diging"}

    @pytest.mark.parametrize("command, flags", [
        ("gen", {"--help", "--config", "--out"}),
        ("run", {"--help", "--config", "--out", "--algo"}),
    ])
    def test_help_lists_only_config_out_and_algo(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == flags

    def test_budget_limits_combine(self, tmp_path):
        # the config's limits form one budget, and the run stops at whichever it reaches
        # first; the outer limit is far enough that the rounds cap binds under any stage count
        cfg = base_config(tmp_path, budget={"rounds": 7, "outer": 10})
        assert main(["run", "--config", cfg]) == 0
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["config"]["budget"] == {"rounds": 7, "outer": 10}
        assert read_rows(tmp_path / "trace.csv")[-1]["round"] == "7"
        cfg = base_config(tmp_path, budget={"rounds": 10000, "outer": 1})
        assert main(["run", "--config", cfg]) == 0
        last = read_rows(tmp_path / "trace.csv")[-1]
        assert last["outer_s"] == "0" and int(last["round"]) < 10000

    def test_config_seed_changes_instance(self, tmp_path):
        hashes = []
        for seed in (2, 77):
            cfg = base_config(tmp_path, budget={"rounds": 3},
                              problem={"family": "quadratic", "N": 6, "n": 3, "seed": seed})
            assert main(["run", "--config", cfg]) == 0
            hashes.append(json.loads((tmp_path / "trace.csv.meta.json").read_text())["problem_hash"])
        assert hashes[0] != hashes[1]

    def test_logistic_synthetic_run(self, tmp_path):
        cfg = write_config(tmp_path / "l.json",
                           problem={"family": "logistic", "N": 4, "T": 24, "n": 3,
                                    "seed": 5, "mu": 1e-2},
                           network={"seed": 6},
                           algorithm={"name": "efix-g"},
                           budget={"outer": 2},
                           out=str(tmp_path / "t.csv"))
        assert main(["run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "t.csv")
        assert len(rows) > 2

    def test_problem_file_reload(self, tmp_path, capsys):
        gen_cfg = write_config(tmp_path / "g.json",
                               problem={"family": "quadratic", "N": 5, "n": 2, "seed": 3},
                               network={"seed": 4},
                               out=str(tmp_path / "inst"))
        assert main(["gen", "--config", gen_cfg]) == 0
        run_cfg = write_config(tmp_path / "r.json",
                               problem={"problem_file": str(tmp_path / "inst.problem.json")},
                               network={"network_file": str(tmp_path / "inst.network.json")},
                               algorithm={"name": "efix-q"},
                               budget={"rounds": 5},
                               out=str(tmp_path / "t.csv"))
        assert main(["run", "--config", run_cfg]) == 0
        # a seed would change neither file's instance
        seeded = json.loads(Path(run_cfg).read_text())
        seeded["problem"]["seed"] = 7
        run_cfg = write_config(tmp_path / "r.json", **seeded)
        assert main(["run", "--config", run_cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            "error: problem problem_file takes no other field, got ['problem_file', 'seed']")


class TestCompare:
    def run_pair(self, tmp_path, rounds=20):
        pa = tmp_path / "efix.csv"
        pb = tmp_path / "diging.csv"
        shared = dict(problem={"family": "quadratic", "N": 6, "n": 3, "seed": 2},
                      network={"seed": 11},
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
                                 network={"seed": 11},
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

    @pytest.mark.parametrize("edit", [
        lambda line: line + ",7",
        lambda line: line.rsplit(",", 1)[0],
        lambda line: "abc" + line[line.index(","):],
    ], ids=["extra-cell", "short-row", "non-numeric-cell"])
    def test_malformed_trace_row_is_one_error_line(self, tmp_path, capsys, edit):
        pa, pb = self.run_pair(tmp_path, rounds=5)
        lines = pb.read_text().splitlines()
        lines[3] = edit(lines[3])
        pb.write_text("\n".join(lines) + "\n")
        assert main(["compare", str(pa), str(pb), "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"trace {pb} line 4" in err

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
