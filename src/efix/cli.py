"""Configuration-driven experiment runner.

Subcommands: ``gen`` persists a problem/network pair as JSON, ``run``
executes one algorithm and writes a trace CSV (plus a sidecar meta file),
``compare`` merges traces from the same problem/network into one CSV
aligned by rounds, scalar products, and vectors sent.

Exit codes: 0 success, 1 input error (config, files, or usage), 2
numerical failure or divergence.
"""

import argparse
import csv
import dataclasses
import json
import numbers
import sys
from pathlib import Path

import numpy as np

from . import analysis, problems, solvers, topology

TRACE_COLUMNS = [f.name for f in dataclasses.fields(analysis.TraceRecord)]

ALGORITHMS = ("efix-q", "efix-g", "efix-q-stopping", "diging")

_SCHEDULE_KEYS = ("theta0", "theta0_multiplier", "theta_rule", "eps_rule", "eps0")
_SECTIONS = ("problem", "network", "algorithm", "schedule", "budget")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(spec, key, default=None):
    """``spec[key]`` (``default`` if absent), which must be a real number."""
    value = spec.get(key, default)
    if not _is_number(value):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return value


def load_config(path, overrides):
    """Read the JSON config and apply flag overrides (flags win)."""
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must be a JSON object")
    for section in _SECTIONS:
        if not isinstance(cfg.get(section, {}), dict):
            raise ValueError(f"config section {section!r} must be a JSON object")
    if overrides.get("out") is not None:
        cfg["out"] = overrides["out"]
    for flag, section, key in (("algo", "algorithm", "name"), ("m", "algorithm", "m"),
                               ("seed", "problem", "seed"), ("seed", "network", "seed")):
        if overrides.get(flag) is not None:
            cfg.setdefault(section, {})[key] = overrides[flag]
    if overrides.get("budget_rounds") is not None:
        cfg["budget"] = {"rounds": overrides["budget_rounds"]}
    if overrides.get("budget_outer") is not None:
        cfg["budget"] = {"outer": overrides["budget_outer"]}
    return cfg


def resolve_network(cfg):
    net = cfg.get("network", {})
    if "network_file" in net:
        return topology.mixing_from_json(Path(net["network_file"]).read_text())
    try:
        g = topology.generate_geometric_graph(int(net["N"]), int(net["seed"]))
    except KeyError as exc:
        raise ValueError(f"network spec needs field {exc}")
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
                if len(kwargs["spectrum"]) != 2 or not all(map(_is_number, kwargs["spectrum"])):
                    raise ValueError(f"problem spectrum must be [low, high], got {spec['spectrum']}")
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
        raise ValueError(f"problem spec needs field {exc}")
    raise ValueError(f"unknown problem family {family!r}")


def resolve_schedule(cfg, consts):
    spec = cfg.get("schedule", {})
    unknown = [key for key in spec if key not in _SCHEDULE_KEYS]
    if unknown:
        raise ValueError(f"unknown schedule field {', '.join(map(repr, unknown))}; "
                         f"choose from {', '.join(_SCHEDULE_KEYS)}")
    if "theta0" in spec:
        theta0 = float(_number(spec, "theta0"))
    else:
        theta0 = float(_number(spec, "theta0_multiplier", 2.0)) * consts.L
    return solvers.Schedule(theta0=theta0,
                            theta_rule=spec.get("theta_rule", "factorial"),
                            eps_rule=spec.get("eps_rule", "balance"),
                            eps0=None if spec.get("eps0") is None else _number(spec, "eps0"))


def resolve_budget(cfg):
    spec = cfg.get("budget")
    if not spec:
        raise ValueError("config needs a budget")
    return solvers.Budget(rounds=spec.get("rounds"), outer=spec.get("outer"),
                          scalar_products=spec.get("scalar_products"))


def write_trace_csv(trace, path):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(TRACE_COLUMNS)
        for r in trace.records:
            out.writerow([_fmt(getattr(r, c)) for c in TRACE_COLUMNS])


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
        raise ValueError("gen persists quadratic problems; logistic data comes from files")
    w = resolve_network(cfg)
    if w.node_count != problem.node_count:
        raise ValueError("problem and network node counts differ")
    out = cfg.get("out")
    if not out:
        raise ValueError("gen needs an output prefix")
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
        raise ValueError("problem and network node counts differ")
    algo = cfg.get("algorithm", {}).get("name")
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    budget = resolve_budget(cfg)
    consts = problems.constants_for(problem)
    out = cfg.get("out")
    if not out:
        raise ValueError("run needs an output path")
    if not Path(out).parent.is_dir():
        raise ValueError(f"output directory {Path(out).parent} does not exist")

    if algo == "diging":
        m = _number(cfg.get("algorithm", {}), "m", 10)
        if m < 1:
            raise ValueError(f"algorithm m must be at least 1, got {m}")
        trace = solvers.diging(problem, w, alpha=1.0 / (int(m) * consts.L), budget=budget)
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


_SECTION_KEYS = [("round", "round"), ("scalar_products", "cum_sp_max"),
                 ("vectors_sent", "cum_vectors_sent")]
_COMPARE_FIELDS = ["error_e", "error_v", "cum_sp_max", "cum_vectors_sent"]


def _read_trace_csv(path):
    with open(path) as fh:
        reader = csv.DictReader(fh)
        for column in ["round"] + _COMPARE_FIELDS:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"trace {path} needs column {column!r}")
        return [{k: None if v == "" else float(v) for k, v in row.items()}
                for row in reader]


def _read_sidecar(path):
    meta = json.loads(Path(path).read_text())
    for key in ("algo", "problem_hash"):
        if not isinstance(meta, dict) or key not in meta:
            raise ValueError(f"sidecar {path} needs field {key!r}")
    return meta


def cmd_compare(paths, out):
    if len(paths) < 2:
        raise ValueError("compare needs at least two traces")
    traces, labels, hashes = [], [], []
    for i, p in enumerate(paths):
        meta = _read_sidecar(str(p) + ".meta.json")
        # each row's compare cells are formatted once, however many keys reuse it
        traces.append([dict(row, cells=[_fmt(row[f]) for f in _COMPARE_FIELDS])
                       for row in _read_trace_csv(p)])
        labels.append(f"{i}_{meta['algo']}")
        hashes.append(meta["problem_hash"])
    if len(set(hashes)) != 1:
        raise ValueError(f"traces come from different problems: {hashes}")

    header = ["section", "key"]
    for lab in labels:
        header += [f"{f}__{lab}" for f in _COMPARE_FIELDS]
    header += [f"vectors_ratio__{lab}" for lab in labels[1:]]

    with open(out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for section, key_col in _SECTION_KEYS:
            # last row at each key (boundary rows collapse), carried over later keys
            series = [{int(row[key_col]): row for row in rows} for rows in traces]
            at_key = [None] * len(series)
            for k in sorted(set().union(*series)):
                row = [section, str(k)]
                at_key = [s.get(k, prev) for s, prev in zip(series, at_key)]
                for rec in at_key:
                    row += [""] * len(_COMPARE_FIELDS) if rec is None else rec["cells"]
                base = at_key[0]
                for rec in at_key[1:]:
                    if base is None or rec is None or not rec["cum_vectors_sent"]:
                        row.append("")
                    else:
                        row.append(_fmt(base["cum_vectors_sent"] / rec["cum_vectors_sent"]))
                w.writerow(row)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one ``error:`` line and exit 1."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser():
    ap = _Parser(prog="efix", description=__doc__)
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
        cfg = load_config(args.config, vars(args))
        if args.command == "gen":
            return cmd_gen(cfg)
        return cmd_run(cfg)
    except (ValueError, TypeError, OSError, topology.GraphGenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
