"""Configuration-driven experiment runner.

Subcommands: ``gen`` persists a problem/network pair as JSON, ``run``
executes one algorithm and writes a trace CSV (plus a sidecar meta file),
``compare`` merges traces from the same problem/network into one CSV
aligned by rounds, scalar products, and vectors sent.

Exit codes: 0 success, 1 configuration error, 2 numerical failure or
divergence.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import problems, solvers, topology

TRACE_COLUMNS = ["round", "outer_s", "theta", "epsilon", "error_e", "error_v",
                 "consensus_residual", "cum_sp_max", "cum_vectors_sent"]

ALGORITHMS = ("efix-q", "efix-g", "efix-q-stopping", "diging")

_SCHEDULE_KEYS = ("theta0", "theta0_multiplier", "theta_rule", "eps_rule", "eps0")


class ConfigError(ValueError):
    pass


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def load_config(path, overrides):
    """Read the JSON config and apply flag overrides (flags win)."""
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if overrides.get("out") is not None:
        cfg["out"] = overrides["out"]
    if overrides.get("algo") is not None:
        cfg.setdefault("algorithm", {})["name"] = overrides["algo"]
    if overrides.get("m") is not None:
        cfg.setdefault("algorithm", {})["m"] = overrides["m"]
    if overrides.get("budget_rounds") is not None:
        cfg["budget"] = {"rounds": overrides["budget_rounds"]}
    if overrides.get("budget_outer") is not None:
        cfg["budget"] = {"outer": overrides["budget_outer"]}
    if overrides.get("seed") is not None:
        cfg.setdefault("problem", {})["seed"] = overrides["seed"]
        cfg.setdefault("network", {})["seed"] = overrides["seed"]
    return cfg


def resolve_network(cfg):
    net = cfg.get("network", {})
    if "network_file" in net:
        return topology.mixing_from_json(Path(net["network_file"]).read_text())
    try:
        g = topology.generate_geometric_graph(int(net["N"]), int(net["seed"]))
    except KeyError as exc:
        raise ConfigError(f"network spec needs field {exc}")
    return topology.metropolis_weights(g)


def resolve_problem(cfg):
    spec = cfg.get("problem", {})
    if "problem_file" in spec:
        return problems.QuadraticProblem.from_json(Path(spec["problem_file"]).read_text())
    family = spec.get("family")
    try:
        if family == "quadratic":
            kwargs = {}
            if "spectrum" in spec:
                kwargs["spectrum"] = tuple(spec["spectrum"])
            return problems.generate_quadratic(int(spec["N"]), int(spec["n"]),
                                               int(spec["seed"]), **kwargs)
        if family == "logistic":
            mu = float(spec.get("mu", 1e-4))
            if "path" in spec:
                features, labels = problems.load_libsvm(spec["path"])
                p = problems.partition_data(features, labels, int(spec["N"]),
                                            int(spec["seed"]), mu)
                return problems.scale_features(p)
            return problems.generate_logistic(int(spec["N"]), int(spec["T"]),
                                              int(spec["n"]), int(spec["seed"]), mu)
    except KeyError as exc:
        raise ConfigError(f"problem spec needs field {exc}")
    raise ConfigError(f"unknown problem family {family!r}")


def resolve_schedule(cfg, consts):
    spec = cfg.get("schedule", {})
    unknown = [key for key in spec if key not in _SCHEDULE_KEYS]
    if unknown:
        raise ConfigError(f"unknown schedule field {', '.join(map(repr, unknown))}; "
                          f"choose from {', '.join(_SCHEDULE_KEYS)}")
    try:
        if "theta0" in spec:
            theta0 = float(spec["theta0"])
        else:
            theta0 = float(spec.get("theta0_multiplier", 2.0)) * consts.L
        return solvers.Schedule(theta0=theta0,
                                theta_rule=spec.get("theta_rule", "factorial"),
                                eps_rule=spec.get("eps_rule", "balance"),
                                eps0=spec.get("eps0"))
    except ValueError as exc:
        raise ConfigError(str(exc))


def resolve_budget(cfg):
    spec = cfg.get("budget")
    if not spec:
        raise ConfigError("config needs a budget")
    try:
        return solvers.Budget(rounds=spec.get("rounds"), outer=spec.get("outer"),
                              scalar_products=spec.get("scalar_products"))
    except ValueError as exc:
        raise ConfigError(str(exc))


def write_trace_csv(trace, path):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(TRACE_COLUMNS)
        for r in trace.records:
            out.writerow([_fmt(r.round), _fmt(r.outer_s), _fmt(r.theta), _fmt(r.epsilon),
                          _fmt(r.error_e), _fmt(r.error_v), _fmt(r.consensus_residual),
                          _fmt(r.cum_sp_max), _fmt(r.cum_vectors_sent)])


def write_sidecar(trace, cfg, path):
    doc = {"algo": trace.algo, "problem_hash": trace.problem_hash,
           "N": trace.node_count, "n": trace.dim,
           "diverged": trace.diverged, "numerical_failure": trace.numerical_failure,
           "centralized_reference": trace.centralized_reference,
           "meta": trace.meta, "config": cfg}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def cmd_gen(cfg):
    problem = resolve_problem(cfg)
    if problem.family != "quadratic":
        raise ConfigError("gen persists quadratic problems; logistic data comes from files")
    w = resolve_network(cfg)
    if w.node_count != problem.node_count:
        raise ConfigError("problem and network node counts differ")
    out = cfg.get("out")
    if not out:
        raise ConfigError("gen needs an output prefix")
    consts = problems.constants_for(problem)
    g = topology.Graph(w.node_count, w.neighbor_lists)
    Path(str(out) + ".problem.json").write_text(problem.to_json())
    Path(str(out) + ".network.json").write_text(topology.network_to_json(g, w))
    print(json.dumps({"L": consts.L, "mu": consts.mu, "kappa": consts.kappa,
                      "J": consts.J, "lambda2": w.lambda2, "w_bar": w.w_bar},
                     sort_keys=True))
    return 0


def cmd_run(cfg):
    problem = resolve_problem(cfg)
    w = resolve_network(cfg)
    if w.node_count != problem.node_count:
        raise ConfigError("problem and network node counts differ")
    algo = cfg.get("algorithm", {}).get("name")
    if algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    budget = resolve_budget(cfg)
    consts = problems.constants_for(problem)
    out = cfg.get("out")
    if not out:
        raise ConfigError("run needs an output path")

    if algo == "diging":
        m = int(cfg.get("algorithm", {}).get("m", 10))
        trace = solvers.diging(problem, w, alpha=1.0 / (m * consts.L), budget=budget)
    else:
        sched = resolve_schedule(cfg, consts)
        fn = {"efix-q": solvers.efix_q, "efix-g": solvers.efix_g,
              "efix-q-stopping": solvers.efix_q_stopping}[algo]
        trace = fn(problem, w, sched, budget)

    write_trace_csv(trace, out)
    write_sidecar(trace, cfg, str(out) + ".meta.json")
    if trace.diverged or trace.numerical_failure:
        print(f"{algo}: numerical failure or divergence; partial trace written", file=sys.stderr)
        return 2
    return 0


def _read_trace_csv(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for k in row:
            row[k] = None if row[k] == "" else float(row[k])
    return rows


def _series(rows, key_col):
    """Last row at each key value, keyed ascending (boundary rows collapse)."""
    by_key = {}
    for row in rows:
        by_key[int(row[key_col])] = row
    return dict(sorted(by_key.items()))


_SECTION_KEYS = [("round", "round"), ("scalar_products", "cum_sp_max"),
                 ("vectors_sent", "cum_vectors_sent")]
_COMPARE_FIELDS = ["error_e", "error_v", "cum_sp_max", "cum_vectors_sent"]


def cmd_compare(paths, out):
    if len(paths) < 2:
        raise ConfigError("compare needs at least two traces")
    traces, labels, hashes = [], [], []
    for i, p in enumerate(paths):
        meta = json.loads(Path(str(p) + ".meta.json").read_text())
        traces.append(_read_trace_csv(p))
        labels.append(f"{i}_{meta['algo']}")
        hashes.append(meta["problem_hash"])
    if len(set(hashes)) != 1:
        raise ConfigError(f"traces come from different problems: {hashes}")

    header = ["section", "key"]
    for lab in labels:
        header += [f"{f}__{lab}" for f in _COMPARE_FIELDS]
    header += [f"vectors_ratio__{lab}" for lab in labels[1:]]

    with open(out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for section, key_col in _SECTION_KEYS:
            series = [_series(rows, key_col) for rows in traces]
            keys = sorted(set().union(*(s.keys() for s in series)))
            for k in keys:
                row = [section, str(k)]
                at_key = []
                for s in series:
                    usable = [v for kk, v in s.items() if kk <= k]
                    at_key.append(usable[-1] if usable else None)
                for rec in at_key:
                    row += ["" if rec is None else _fmt(rec[f]) for f in _COMPARE_FIELDS]
                base = at_key[0]
                for rec in at_key[1:]:
                    if base is None or rec is None or not rec["cum_vectors_sent"]:
                        row.append("")
                    else:
                        row.append(_fmt(base["cum_vectors_sent"] / rec["cum_vectors_sent"]))
                w.writerow(row)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="efix", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--out", default=None)
    common.add_argument("--algo", default=None, choices=ALGORITHMS)
    common.add_argument("--m", type=int, default=None)
    common.add_argument("--budget-rounds", type=int, default=None)
    common.add_argument("--budget-outer", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)

    sub.add_parser("gen", parents=[common])
    sub.add_parser("run", parents=[common])
    cp = sub.add_parser("compare")
    cp.add_argument("traces", nargs="+")
    cp.add_argument("--out", required=True)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args.traces, args.out)
        overrides = {"out": args.out, "algo": args.algo, "m": args.m,
                     "budget_rounds": args.budget_rounds,
                     "budget_outer": args.budget_outer, "seed": args.seed}
        cfg = load_config(args.config, overrides)
        if args.command == "gen":
            return cmd_gen(cfg)
        return cmd_run(cfg)
    except (ConfigError, topology.GraphGenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
