"""One workload of the ualgebra benchmark, run in its own process.

`run.py` generates the inputs and starts this script with `src` on
PYTHONPATH.  The worker loads the fixtures, runs every part of the
benchmark (the workload's own parts at full scale for the measured
seconds, the others as small fixed probes so that every metric is
reported), checks every output against references that do not come from
ualgebra, and prints one JSON line: the metrics, their sample counts, and
the operations attempted and failed.

With --setup it only imports ualgebra and loads every fixture, and prints
the seconds that took; the worker runs it several times to measure set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import naive
from spans import NullTracer, Tracer
from speed import Speed

SETUP_REPEATS = 7  # fresh processes per run for setup_s; the median is reported
PROBE_SHARE = 0.08  # time of each probe part relative to the workload's own parts
PROBE_ROUNDS = 3  # least whole rounds of each probe part
EXTRA_REPEATS = 5  # samples per traced-only CLI measurement

# Which parts each workload runs at full scale; the rest run as probes.
FULL_PARTS = {
    "big_terms": ("pipeline",),
    "full_scan": ("model", "hom"),
    "search": ("equations", "maps", "enum"),
    "cli": ("cli",),
}

RATE_METRICS = {
    "pipeline": "nodes_per_s",
    "model": "assignments_per_s",
    "hom": "hom_tuples_per_s",
    "equations": "equations_per_s",
    "maps": "maps_per_s",
    "enum": "terms_per_s",
}


def count_nodes(symbol, results):
    return 1 + sum(results)


def load_fixtures(tr, manifest):
    """Read every fixture through the public loaders.  Returns the raw JSON
    (for the references) and the loaded objects, by manifest key."""
    from ualgebra import FiniteAlgebra, Signature, Theory

    raw, objs = {}, {}
    for entry in manifest:
        with open(entry["path"], encoding="utf-8") as handle:
            data = json.load(handle)
        key, kind = entry["key"], entry["kind"]
        raw[key] = data
        if kind == "signature":
            objs[key] = tr("signature.from_json", Signature.from_json, data)
        elif kind == "algebra":
            objs[key] = tr("algebras.from_json", FiniteAlgebra.from_json, objs[entry["sig"]], data)
        else:
            objs[key] = tr("equations.theory_from_json", Theory.from_json, objs[entry["sig"]], data)
    return raw, objs


def tables_of(raw_sig, raw_alg):
    """(carrier, tables in symbol order) straight from the fixture JSON."""
    return raw_alg["carrier"], [raw_alg["tables"][row["name"]] for row in raw_sig["symbols"]]


def rank(assignment, size):
    index = 0
    for x in assignment:
        index = index * size + x
    return index


# ------------------------------------------------------------------- items
#
# An item is one timed unit of work.  Calling it with a tracer returns
# (seconds, operations attempted, operations failed); seconds cover only
# the calls into ualgebra, and the checks run after the clock stops.  The
# item's `units` is its work per call (nodes, assignments, ...).


class PipelineItem:
    """One big term through parse, validate, status, depth, fold,
    evaluate, format, destructure and build."""

    def __init__(self, ua, sig, alg, case):
        self.ua, self.sig, self.alg, self.case = ua, sig, alg, case
        with open(case["path"], encoding="utf-8") as handle:
            self.text = handle.read()
        self.units = case["nodes"]

    def __call__(self, tr):
        ua, sig, text = self.ua, self.sig, self.text
        t0 = perf_counter()
        term = tr("syntax.parse_term", ua.parse_term, sig, text)
        checked = tr("terms.Term", ua.Term, sig, term.ops)
        status = tr("oplist.status_of", ua.status_of, sig, term.ops)
        dep = tr("terms.depth", ua.depth, term)
        size = tr("terms.fold", ua.fold, count_nodes, term)
        value = tr("algebras.evaluate", self.alg.evaluate, term)
        out = tr("terms.format_term", ua.format_term, term)
        head, kids = tr("terms.destructure", ua.destructure, term)
        back = tr("terms.build_term", ua.build_term, head, kids)
        seconds = perf_counter() - t0
        n = self.units
        checks = [
            len(term.ops) == n,
            checked.ops == term.ops,
            status == ua.Ok(1),
            dep == self.case["depth"],
            size == n,
            value == self.case["value"],
            out == text,
            len(kids) == sig.arity(head),
            back.ops == term.ops,
        ]
        if tr.enabled:
            tr.count("syntax.parse_term", len(text))
            for name in ("terms.Term", "oplist.status_of", "terms.depth", "terms.fold",
                         "algebras.evaluate", "terms.format_term", "terms.destructure",
                         "terms.build_term"):
                tr.count(name, n)
        return seconds, len(checks), checks.count(False)


class ModelItem:
    """check_model on a theory that holds by construction: a full scan."""

    def __init__(self, ua, alg, theory, size, space):
        self.ua, self.alg, self.theory, self.size = ua, alg, theory, size
        self.units = space

    def __call__(self, tr):
        t0 = perf_counter()
        failure = tr("equations.check_model", self.ua.check_model, self.alg, self.theory)
        seconds = perf_counter() - t0
        if tr.enabled:
            scanned, checked = 0, 0
            for label, eq in self.theory.equations:
                checked += 1
                if failure is not None and label == failure.label:
                    scanned += rank(failure.assignment, self.size) + 1
                    break
                scanned += self.size ** eq.context_size
            tr.count("equations.assignments", scanned)
            tr.count("equations.space", self.units)
            tr.count("equations.checked", checked)
            tr.count("equations.refuted", failure is not None)
        return seconds, 1, failure is not None


class HomItem:
    """check_homomorphism on a quotient map Z_n -> Z_m, m | n: a full scan."""

    def __init__(self, ua, source, target, mapping, tuples):
        self.ua, self.source, self.target, self.mapping = ua, source, target, mapping
        self.units = tuples

    def __call__(self, tr):
        t0 = perf_counter()
        violation = tr("algebras.check_homomorphism", self.ua.check_homomorphism,
                       self.source, self.target, self.mapping)
        seconds = perf_counter() - t0
        if tr.enabled:
            tr.count("algebras.check_homomorphism", self.units)
        return seconds, 1, violation is not None


class EquationsItem:
    """Seeded candidate equations over enumerated terms, each built as an
    Equation and decided by find_violation in one algebra."""

    def __init__(self, ua, alg, pairs, reference, size, n_vars):
        self.ua, self.alg, self.pairs = ua, alg, pairs
        self.reference = reference  # {pair index: least violation}, from naive
        self.size, self.n_vars = size, n_vars
        self.units = len(pairs)
        self.first = None

    def __call__(self, tr):
        Equation, find_violation, alg, n = self.ua.Equation, self.ua.find_violation, self.alg, self.n_vars
        results = []
        t0 = perf_counter()
        for lhs, rhs in self.pairs:
            eq = tr("equations.Equation", Equation, n, lhs, rhs)
            results.append(tr("equations.find_violation", find_violation, alg, eq))
        seconds = perf_counter() - t0
        if self.first is None:
            self.first = results
            failed = sum(results[k] != want for k, want in self.reference.items())
        else:
            failed = sum(a != b for a, b in zip(results, self.first))
        if tr.enabled:
            space = self.size ** n
            scanned = sum(space if r is None else rank(r, self.size) + 1 for r in results)
            tr.count("equations.assignments", scanned)
            tr.count("equations.space", space * len(results))
            tr.count("equations.checked", len(results))
            tr.count("equations.refuted", sum(r is not None for r in results))
        return seconds, len(results), failed


class MapsItem:
    """Every carrier map between two small algebras, each decided by
    check_homomorphism."""

    def __init__(self, ua, source, target, maps, expected):
        self.ua, self.source, self.target = ua, source, target
        self.maps, self.expected = maps, expected
        self.units = len(maps)

    def __call__(self, tr):
        check, source, target = self.ua.check_homomorphism, self.source, self.target
        t0 = perf_counter()
        results = [tr("algebras.check_homomorphism", check, source, target, m)
                   for m in self.maps]
        seconds = perf_counter() - t0
        verdicts = [v is None for v in results]
        if tr.enabled:
            arities = [s.arity for s in source.signature.symbols]
            size = source.carrier_size
            # tuples examined: a homomorphism scans all; otherwise count
            # up to and including the first violation
            full = sum(size ** a for a in arities)
            scanned = 0
            for v in results:
                if v is None:
                    scanned += full
                else:
                    scanned += sum(size ** a for a in arities[:v.symbol.index])
                    scanned += rank(v.args, size) + 1
            tr.count("algebras.check_homomorphism", scanned)
        failed = sum(a != b for a, b in zip(verdicts, self.expected))
        return seconds, len(verdicts), failed


class EnumItem:
    """enumerate_terms over a small signature extended with variables."""

    def __init__(self, ua, sig, max_len, counts, seed):
        self.ua, self.sig, self.max_len = ua, sig, max_len
        self.counts = counts
        self.units = sum(counts)
        self.arities = [s.arity for s in sig.symbols]
        self.rng = random.Random(seed)
        self.digest = None

    def __call__(self, tr):
        t0 = perf_counter()
        terms = tr("terms.enumerate_terms", self.ua.enumerate_terms, self.sig, self.max_len,
                   limit=self.max_len)
        seconds = perf_counter() - t0
        keys = [t.ops for t in terms]
        by_len = [0] * self.max_len
        for ops in keys:
            by_len[len(ops) - 1] += 1
        failed = int(by_len != self.counts)
        digest = hash(tuple(keys))
        if self.digest is None:
            self.digest = digest
            failed += sum(not (len(a), a) < (len(b), b) for a, b in zip(keys, keys[1:]))
            sample = self.rng.sample(keys, min(500, len(keys)))
            failed += sum(not naive.is_term(ops, self.arities) for ops in sample)
        else:
            failed += digest != self.digest
        if tr.enabled:
            tr.count("terms.enumerate_terms", len(terms))
        return seconds, 1, min(failed, 1)


class CliItem:
    """One `python -m ualgebra` invocation: exit code as known, stdout as
    known where given and byte-identical across repeats."""

    def __init__(self, run, env, root):
        self.run, self.env, self.root = run, env, root
        self.cmd = [sys.executable, "-m", "ualgebra"] + run["argv"]
        self.first = None

    def __call__(self, tr):
        t0 = perf_counter()
        proc = tr("cli.ua", subprocess.run, self.cmd, stdout=subprocess.PIPE,
                  stderr=subprocess.PIPE, env=self.env, cwd=self.root)
        seconds = perf_counter() - t0
        if self.first is None:
            self.first = proc.stdout
        bad = (proc.returncode != self.run["exit"]
               or proc.stdout != self.first
               or (self.run["stdout"] is not None
                   and proc.stdout != self.run["stdout"].encode()))
        return seconds, 1, int(bad)


# -------------------------------------------------------------- building

def build_parts(ua, spec, raw, objs, env, root):
    """Items of every part, keyed by part name."""
    p = spec["parts"]
    parts = {}

    s = p["pipeline"]
    parts["pipeline"] = [PipelineItem(ua, objs[s["sig"]], objs[s["alg"]], c) for c in s["cases"]]

    items = []
    for it in p["model"]["items"]:
        size = raw[it["alg"]]["carrier"]
        items.append(ModelItem(ua, objs[it["alg"]], objs[it["theory"]], size, it["assignments"]))
    parts["model"] = items

    parts["hom"] = [HomItem(ua, objs[it["source"]], objs[it["target"]], it["map"], it["tuples"])
                    for it in p["hom"]["items"]]

    s = p["search"]
    base = objs["grp_sig"]
    arities = [row["arity"] for row in raw["grp_sig"]["symbols"]]
    extended = base.extend_with_variables(s["vars"])
    pool = ua.enumerate_terms(extended, s["pool_len"], limit=s["pool_len"])
    rng = random.Random(s["pair_seed"])
    items = []
    for key in s["algs"]:
        size, tables = tables_of(raw["grp_sig"], raw[key])
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(s["pairs"])]
        reference = {}
        for k in rng.sample(range(len(pairs)), min(60, len(pairs))):
            lhs, rhs = pairs[k]
            reference[k] = naive.least_violation(arities, size, tables, s["vars"], lhs.ops, rhs.ops)
        items.append(EquationsItem(ua, objs[key], pairs, reference, size, s["vars"]))
    parts["equations"] = items

    items = []
    for it in s["maps"]:
        src = tables_of(raw["grp_sig"], raw[it["source"]])
        dst = tables_of(raw["grp_sig"], raw[it["target"]])
        maps = list(itertools.product(range(dst[0]), repeat=src[0]))
        expected = [naive.is_homomorphism(arities, src, dst, m) for m in maps]
        items.append(MapsItem(ua, objs[it["source"]], objs[it["target"]], maps, expected))
    parts["maps"] = items

    ext_arities = arities + [0] * s["vars"]
    parts["enum"] = [EnumItem(ua, extended, s["enum_len"],
                              naive.term_counts(ext_arities, s["enum_len"]), s["pair_seed"])]

    parts["cli"] = [CliItem(run, env, root) for run in spec["parts"]["cli"]["mix"]]
    return parts


# -------------------------------------------------------------- measuring

class Queue:
    """Items run in order, round after round, with their samples."""

    def __init__(self, items, min_rounds, whole_rounds=True, own=False):
        self.items = items
        self.samples = [[] for _ in items]
        self.min_rounds, self.whole_rounds = min_rounds, whole_rounds
        self.own = own  # a part of the workload's own, not a probe
        self.n = 0  # items run so far
        self.spent = 0.0

    def done(self):
        k = len(self.items)
        return self.n >= self.min_rounds * k and not (self.whole_rounds and self.n % k)


def measure(own_parts, probes, seconds, tracer, speed, whole_rounds):
    """Run the workload's own parts round after round for the measured
    seconds, each own part taking an equal share of the time, and
    interleave each probe part so that it takes about PROBE_SHARE of the
    time the own parts take, and at least its least rounds spread evenly
    over the measured seconds.  Equal shares, not one round-robin over
    every own item: in `full_scan`, one round of the `model` items takes
    about 6 s and one of the `hom` items 1 s, and round-robin left `hom`
    with a single sample per item.  Spreading every item's samples over the
    whole run keeps a short slow spell on a shared machine from moving all
    of them.  A traced run runs each own item untraced and traced in turn
    (to measure the tracing overhead); probes are always traced.  After the
    deadline, the own parts finish their least rounds and the probes their
    least whole rounds.  `speed` calibrates between items.

    `own_parts` and `probes` map part name to items.  Returns the samples
    (a list of (seconds, traced) per item) of the own parts and of the
    probe parts, by part name, and the operations attempted and failed."""
    null = NullTracer()
    own = {name: Queue(items, 2 if tracer.enabled else 1, whole_rounds, own=True)
           for name, items in own_parts.items()}
    parts = {name: Queue(items, PROBE_ROUNDS) for name, items in probes.items()}
    attempted = failed = 0
    start = perf_counter()
    deadline = start + seconds
    while True:
        now = perf_counter()
        if now > deadline:
            pending = [q for q in [*own.values(), *parts.values()] if not q.done()]
            if not pending:
                return ({name: q.samples for name, q in own.items()},
                        {name: q.samples for name, q in parts.items()}, attempted, failed)
            q = pending[0]
        else:
            # a probe part behind its least rounds pro rata goes first, so
            # that the least rounds end with the deadline, not after it
            due = PROBE_ROUNDS * (now - start) / seconds
            behind = [p for p in parts.values() if p.n < due * len(p.items)]
            q = behind[0] if behind else min(parts.values(), key=lambda p: p.spent)
            if not behind and q.spent > PROBE_SHARE * sum(o.spent for o in own.values()):
                q = min(own.values(), key=lambda o: o.spent)
        k = q.n % len(q.items)
        # own items alternate untraced and traced, and swap each round
        tr = null if q.own and (q.n // len(q.items) + k) % 2 == 0 else tracer
        q.n += 1
        speed.tick()
        t0 = perf_counter()
        try:
            took, tried, bad = tr("bench.item", q.items[k], tr) if tr.enabled else q.items[k](tr)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            attempted += 1
            failed += 1
        else:
            attempted += tried
            failed += bad
            q.samples[k].append((took, tr.enabled))
        q.spent += perf_counter() - t0


def rate(items, samples):
    """Work units per second over one pass of the items, each item at its
    mean time.  Returns (rate, sample count).

    The mean, not the median: the machine's speed drifts in spells of
    seconds to minutes, and a per-item median snaps to whichever speed held
    for most of a run, while the mean blends them in proportion to their
    time, which moves less from run to run."""
    timed = [(item, rows) for item, rows in zip(items, samples) if rows]  # failed items have none
    work = sum(item.units for item, _ in timed)
    time = sum(statistics.fmean(s for s, _ in rows) for _, rows in timed)
    return work / time, sum(map(len, samples))


def overhead(samples):
    """Traced over untraced time of the items that ran both ways, minus 1."""
    traced = untraced = 0.0
    for rows in samples:
        on = [s for s, t in rows if t]
        off = [s for s, t in rows if not t]
        if on and off:
            traced += statistics.median(on)
            untraced += statistics.median(off)
    return traced / untraced - 1


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spawn_times(cmd, env, root, repeats, speed=None):
    """Wall seconds of each of `repeats` runs of `cmd`, calibrating
    `speed` (if given) before each."""
    times = []
    for _ in range(repeats):
        if speed is not None:
            speed.tick(force=True)
        t0 = perf_counter()
        subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       env=env, cwd=root, check=True)
        times.append(perf_counter() - t0)
    return times


def setup_seconds(args, env, root, speed):
    """Median of fresh processes that import ualgebra and load every
    fixture, calibrating `speed` before each."""
    cmd = [sys.executable, os.path.abspath(__file__), "--spec", args.spec, "--setup"]
    values = []
    for _ in range(SETUP_REPEATS):
        speed.tick(force=True)
        out = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=root, check=True)
        values.append(float(out.stdout))
    return statistics.median(values), len(values)


def cli_extras(ua, tr, spec, objs, env, root):
    """Traced-only CLI numbers: interpreter start, import, in-process
    cli.main per subcommand, and the oplist layer on the check inputs."""
    out = {}
    interp = statistics.median(spawn_times([sys.executable, "-c", "pass"], env, root,
                                           EXTRA_REPEATS))
    imp = statistics.median(spawn_times([sys.executable, "-c", "import ualgebra.cli"], env,
                                        root, EXTRA_REPEATS))
    out["cli.interpreter_ms"] = interp * 1e3
    out["cli.import_ms"] = (imp - interp) * 1e3
    by_sub = {}  # per subcommand, the median time of each of its invocations
    for run in spec["parts"]["cli"]["mix"]:
        times = []
        for _ in range(EXTRA_REPEATS):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = perf_counter()
                tr("cli.main", ua.cli.main, run["argv"])
                times.append(perf_counter() - t0)
        by_sub.setdefault(run["sub"], []).append(statistics.median(times))
        if run["sub"] == "check":
            sig = objs["cli_nat"]
            for text in run["argv"][run["argv"].index(sig_path(spec, "cli_nat")) + 1:]:
                ops = tr("oplist.parse_oplist", ua.parse_oplist, sig, text)
                tr("oplist.status_of", ua.status_of, sig, ops)
                tr.count("oplist.parse_oplist", len(ops))
                tr.count("oplist.status_of", len(ops))
    for sub, times in by_sub.items():
        out[f"cli.main_ms.{sub}"] = statistics.mean(times) * 1e3
    return out


def sig_path(spec, key):
    return next(e["path"] for e in spec["manifest"] if e["key"] == key)


def layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if name.startswith("cli.main_ms.") or last.endswith("_ms"):
        return "ms"
    if last.startswith("ns_per_") or "_ns_per_" in last:
        return "ns"
    if last == "us_per_call":
        return "us"
    if last.endswith("_share"):
        return "ratio"
    if last.endswith("_s"):
        return "s"
    return "count"


def layer_metrics(tr, extras, overhead_share):
    summary = tr.summary()
    units = tr.units

    def ns(*names):
        return sum(summary[n][1] for n in names if n in summary)

    def calls(*names):
        return sum(summary[n][0] for n in names if n in summary)

    def per(name):
        return ns(name) / units[name]

    eq_scan = ("equations.check_model", "equations.find_violation")
    eq_calls = eq_scan + ("equations.Equation",)
    m = {
        "signature.load_s": ns("signature.from_json") / 1e9,
        "oplist.status_of_ns_per_symbol": per("oplist.status_of"),
        "oplist.parse_oplist_ns_per_symbol": per("oplist.parse_oplist"),
        "oplist.symbols_scanned": units["oplist.status_of"] + units["oplist.parse_oplist"],
        "syntax.parse_ns_per_char": per("syntax.parse_term"),
        "syntax.parse_s": ns("syntax.parse_term") / calls("syntax.parse_term") / 1e9,
        "terms.validate_ns_per_node": per("terms.Term"),
        "terms.depth_ns_per_node": per("terms.depth"),
        "terms.fold_ns_per_node": per("terms.fold"),
        "terms.format_ns_per_node": per("terms.format_term"),
        "terms.destructure_ns_per_node": per("terms.destructure"),
        "terms.build_ns_per_node": per("terms.build_term"),
        "terms.enumerate_ns_per_term": per("terms.enumerate_terms"),
        "terms.enumerated": units["terms.enumerate_terms"],
        "algebras.evaluate_ns_per_node": per("algebras.evaluate"),
        "algebras.hom_ns_per_tuple": per("algebras.check_homomorphism"),
        "algebras.hom_tuples": units["algebras.check_homomorphism"],
        "algebras.load_s": ns("algebras.from_json") / 1e9,
        "equations.ns_per_assignment": ns(*eq_scan) / units["equations.assignments"],
        "equations.assignments": units["equations.assignments"],
        "equations.us_per_call": ns(*eq_calls) / calls(*eq_calls) / 1e3,
        "equations.calls": calls(*eq_calls),
        "equations.early_exit_share": units["equations.refuted"] / units["equations.checked"],
        "equations.scan_share": units["equations.assignments"] / units["equations.space"],
        "equations.theory_load_s": ns("equations.theory_from_json") / 1e9,
        "trace.overhead_share": overhead_share,
    }
    m.update(extras)
    total = summary[None][1]
    selfs = {}
    for name, (_, _, self_ns) in summary.items():
        if name is not None:
            layer = name.split(".")[0]
            selfs[layer] = selfs.get(layer, 0) + self_ns
    for layer in ("signature", "oplist", "syntax", "terms", "algebras", "equations", "cli",
                  "bench"):
        m[f"{layer}.self_share"] = selfs.get(layer, 0) / total
    return {name: (value, layer_unit(name)) for name, value in m.items()}


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True)
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--workload", choices=sorted(FULL_PARTS))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the spans of a traced run")
    args = ap.parse_args()
    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)

    if args.setup:
        t0 = perf_counter()
        import ualgebra  # noqa: F401  (the import is what is timed)

        load_fixtures(NullTracer(), spec["manifest"])
        print(perf_counter() - t0)
        return 0

    root = os.getcwd()
    env = dict(os.environ)
    full = FULL_PARTS[args.workload]
    speed = Speed()
    if "cli" not in full:
        setup = setup_seconds(args, env, root, speed)

    import ualgebra as ua
    import ualgebra.cli  # noqa: F401  (for the traced in-process cli.main)

    trace = bool(args.trace)
    tracer = Tracer() if trace else NullTracer()
    raw, objs = tracer("bench.load", load_fixtures, tracer, spec["manifest"])
    parts = build_parts(ua, spec, raw, objs, env, root)

    if "cli" in full:
        warm = [sys.executable, "-m", "ualgebra"] + spec["parts"]["cli"]["warmup"]
        times = spawn_times(warm, env, root, SETUP_REPEATS, speed)
        setup = statistics.median(times), len(times)

    own_parts = {name: parts[name] for name in full}
    probes = {name: items for name, items in parts.items() if name not in full}
    own_samples, samples, attempted, failed = measure(own_parts, probes, args.seconds, tracer,
                                                      speed, whole_rounds="cli" in full)
    samples.update(own_samples)

    if trace:
        extras = cli_extras(ua, tracer, spec, objs, env, root)
        own_rows = [rows for name in full for rows in own_samples[name]]
        layer = layer_metrics(tracer, extras, overhead(own_rows))
        if args.spans:
            tracer.write(args.spans)
        result = {"layer": layer}
    else:
        # every time at the reference speed (see speed.py)
        scale = speed.factor()
        e2e = {"setup_s": (setup[0] * scale, setup[1], "s")}
        for name, metric in RATE_METRICS.items():
            value, n = rate(parts[name], samples[name])
            e2e[metric] = (value / scale, n, "1/s")
        cli_times = [s * scale * 1e3 for rows in samples["cli"] for s, _ in rows]
        e2e["cli_p50_ms"] = (statistics.median(cli_times), len(cli_times), "ms")
        e2e["cli_p90_ms"] = (percentile(cli_times, 90), len(cli_times), "ms")
        who = resource.RUSAGE_CHILDREN if "cli" in full else resource.RUSAGE_SELF
        e2e["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, 1, "MB")
        result = {"e2e": e2e, "speed_factor": scale}
    result.update(attempted=attempted, failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
