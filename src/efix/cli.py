"""Configuration-driven experiment runner.

Subcommands: ``gen`` persists a problem/network pair as JSON, ``run``
executes one algorithm and writes a trace CSV (plus a sidecar meta file),
``compare`` merges traces from the same problem/network into one CSV
aligned by rounds, scalar products, and vectors sent.

The config file holds every experiment value: the instance, the schedule,
the budget and DIGing's ``m``.  The command line gives only what differs
between the runs of one comparison: ``--out``, and ``--algo`` for ``run``.

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

# every field a config may give, by section ("config" is the top level);
# any other is an input error
_FIELDS = {
    "config": ("problem", "network", "algorithm", "schedule", "budget", "out"),
    "problem": ("family", "N", "n", "T", "seed", "mu", "spectrum", "path", "problem_file"),
    "network": ("seed", "network_file"),
    "algorithm": ("name", "m"),
    "schedule": ("theta0_multiplier", "theta_rule"),
    "budget": ("rounds", "outer", "scalar_products"),
}
# the fields that must be integers, in whichever section gives them
_INTEGER_FIELDS = ("N", "n", "T", "seed", "m")
# the problem fields each source reads: another would change nothing
_SOURCE_FIELDS = {"quadratic": ("family", "N", "n", "seed", "spectrum"),
                  "logistic": ("family", "N", "T", "n", "seed", "mu"),
                  "logistic path": ("family", "path", "N", "seed", "mu")}


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


def load_config(path, out=None, algo=None):
    """Read the JSON config and check its fields; ``out`` and ``algo`` (the flags) replace theirs."""
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must be a JSON object")
    for section, fields in _FIELDS.items():
        spec = cfg if section == "config" else cfg.get(section, {})
        if not isinstance(spec, dict):
            raise ValueError(f"config section {section!r} must be a JSON object")
        unknown = [key for key in spec if key not in fields]
        if unknown:
            raise ValueError(f"unknown {section} field {', '.join(map(repr, unknown))}; "
                             f"choose from {', '.join(fields)}")
        for key in spec:
            # type(...) is int: JSON's true and false are not integers here
            if key in _INTEGER_FIELDS and type(spec[key]) is not int:
                raise ValueError(f"{section} {key} must be an integer, got {spec[key]!r}")
    if not isinstance(cfg.get("out", ""), str):
        raise ValueError(f"config out must be a string, got {cfg['out']!r}")
    # a section that names a file runs the file as written: another field would change nothing
    for section, key in (("problem", "problem_file"), ("network", "network_file")):
        if key in cfg.get(section, {}) and len(cfg[section]) > 1:
            raise ValueError(f"{section} {key} takes no other field, got {sorted(cfg[section])}")
    if out is not None:
        cfg["out"] = out
    if algo is not None:
        cfg.setdefault("algorithm", {})["name"] = algo
    return cfg


def resolve_network(cfg, problem):
    """A ``network_file`` over the problem's nodes, or a geometric graph drawn on them."""
    net = cfg.get("network", {})
    if "network_file" in net:
        w = topology.mixing_from_json(Path(net["network_file"]).read_text())
        if w.node_count != problem.node_count:
            raise ValueError(f"network_file has {w.node_count} nodes, "
                             f"the problem {problem.node_count}")
        return w
    try:
        nbrs = topology.generate_geometric_graph(problem.node_count, net["seed"])
    except KeyError as exc:
        raise ValueError(f"network spec needs field {exc}")
    return topology.metropolis_weights(nbrs)


def resolve_problem(cfg):
    spec = cfg.get("problem", {})
    if "problem_file" in spec:
        return problems.QuadraticProblem.from_json(Path(spec["problem_file"]).read_text())
    family = spec.get("family")
    source = "logistic path" if family == "logistic" and "path" in spec else family
    unread = [key for key in spec if key not in _SOURCE_FIELDS.get(source, spec)]
    if unread:
        raise ValueError(f"a {source} problem takes no field {', '.join(map(repr, unread))}")
    try:
        if family == "quadratic":
            kwargs = {}
            if "spectrum" in spec:
                spectrum = spec["spectrum"]
                if not (isinstance(spectrum, list) and len(spectrum) == 2
                        and all(map(_is_number, spectrum))):
                    raise ValueError(f"problem spectrum must be [low, high], got {spectrum}")
                kwargs["spectrum"] = tuple(spectrum)
            return problems.generate_quadratic(spec["N"], spec["n"], spec["seed"], **kwargs)
        if family == "logistic":
            mu = float(_number(spec, "mu", 1e-4))
            if "path" in spec:
                features, labels = problems.load_libsvm(spec["path"])
                return problems.partition_and_scale(features, labels, spec["N"], spec["seed"], mu)
            return problems.generate_logistic(spec["N"], spec["T"], spec["n"], spec["seed"], mu)
    except KeyError as exc:
        raise ValueError(f"problem spec needs field {exc}")
    raise ValueError(f"unknown problem family {family!r}")


def resolve_schedule(cfg, consts):
    spec = cfg.get("schedule", {})
    return solvers.Schedule(theta0=float(_number(spec, "theta0_multiplier", 2.0)) * consts.L,
                            theta_rule=spec.get("theta_rule", "factorial"))


def resolve_budget(cfg):
    spec = cfg.get("budget")
    if not spec:
        raise ValueError("config needs a budget")
    return solvers.Budget(rounds=spec.get("rounds"), outer=spec.get("outer"),
                          scalar_products=spec.get("scalar_products"))


def _cells(values):
    """``_fmt`` of each value, once per run of the same object, as a stage's rows share theta.

    ``repr`` or ``str`` alone give ``_fmt``'s text where every value is a float or an int.
    """
    kinds = set(map(type, values))
    fmt = repr if kinds == {float} else str if kinds == {int} else _fmt
    cells, last, cell = [], object(), ""
    for v in values:
        if v is not last:
            last, cell = v, fmt(v)
        cells.append(cell)
    return cells


def write_trace_csv(trace, path):
    """The records as CSV text, built column by column as one string and written once.

    No cell needs quoting, so the text equals ``csv.writer``'s.
    """
    columns = [_cells([getattr(r, c) for r in trace.records]) for c in TRACE_COLUMNS]
    with open(path, "w", newline="") as fh:
        fh.write("".join([",".join(TRACE_COLUMNS), "\n",
                          *(",".join(row) + "\n" for row in zip(*columns))]))


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
    w = resolve_network(cfg, problem)
    out = cfg.get("out")
    if not out:
        raise ValueError("gen needs an output prefix")
    consts = problems.constants_for(problem)
    Path(str(out) + ".problem.json").write_text(problem.to_json())
    Path(str(out) + ".network.json").write_text(topology.network_to_json(w))
    print(json.dumps({"L": consts.L, "mu": consts.mu, "kappa": consts.kappa,
                      "J": consts.J, "lambda2": w.lambda2, "gap": w.gap, "w_bar": w.w_bar},
                     sort_keys=True))
    return 0


def cmd_run(cfg):
    problem = resolve_problem(cfg)
    w = resolve_network(cfg, problem)
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
        m = cfg.get("algorithm", {}).get("m", 10)
        if m < 1:
            raise ValueError(f"algorithm m must be at least 1, got {m}")
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


_SECTION_KEYS = [("round", "round"), ("scalar_products", "cum_sp_max"),
                 ("vectors_sent", "cum_vectors_sent")]
_COMPARE_FIELDS = ["error_e", "error_v", "cum_sp_max", "cum_vectors_sent"]


def _read_trace_csv(path):
    with open(path) as fh:
        reader = csv.DictReader(fh)
        for column in ["round"] + _COMPARE_FIELDS:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"trace {path} needs column {column!r}")
        rows = []
        for row in reader:
            # DictReader files extra cells under None and fills short rows with None
            if None in row or None in row.values():
                raise ValueError(f"trace {path} line {reader.line_num}: expected "
                                 f"{len(reader.fieldnames)} cells")
            try:
                rows.append({k: None if v == "" else float(v) for k, v in row.items()})
            except ValueError as exc:
                raise ValueError(f"trace {path} line {reader.line_num}: {exc}") from None
        return rows


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

    sub.add_parser("gen", parents=[common])
    run = sub.add_parser("run", parents=[common])
    run.add_argument("--algo", default=None, choices=ALGORITHMS)
    cp = sub.add_parser("compare")
    cp.add_argument("traces", nargs="+")
    cp.add_argument("--out", required=True)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args.traces, args.out)
        cfg = load_config(args.config, args.out, vars(args).get("algo"))
        if args.command == "gen":
            return cmd_gen(cfg)
        return cmd_run(cfg)
    except (ValueError, TypeError, OSError, topology.GraphGenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
