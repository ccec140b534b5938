"""Seeded input generation for the ualgebra benchmark.

Nothing here imports `ualgebra`: every reference value (term size, depth
and value, model and homomorphism verdicts, CLI exit codes) is computed by
this module's own code while it builds the inputs.  `write_inputs` writes
the fixtures (signature, algebra and theory JSON files), the big-term
texts and the CLI mix into a run directory and returns the spec the worker
reads.
"""

from __future__ import annotations

import itertools
import json
import os
import random

# Signatures.  Order fixes symbol indices.
BIG_SIG = [("c", 0), ("d", 0), ("s", 1), ("f", 2), ("g", 3)]
GRP_SIG = [("m", 2), ("i", 1), ("e", 0)]
RING_SIG = [("e", 0), ("i", 1), ("m", 2), ("t", 3)]
NAT_SIG = [("z", 0), ("s", 1)]

# Sizes per scale.  "full" is the workload's own part; "probe" is the small
# fixed amount every other workload runs so that it reports every metric.
SCALES = {
    "full": {
        "big_nodes": 1_000_001,
        "model": [(5, 8), (7, 6), ("S3", 6)],
        "hom_n": 60,
        "pool_len": 7,
        "pairs": 2000,
        "maps": [(6, 3), ("S3", 2), (4, 4), (8, 4)],
        "enum_len": 10,
    },
    "probe": {
        "big_nodes": 20_001,
        "model": [(5, 5), (7, 4), ("S3", 4)],
        "hom_n": 12,
        "pool_len": 6,
        "pairs": 1000,
        "maps": [(6, 3), ("S3", 2)],
        "enum_len": 7,
    },
}

# The random algebras of `search` come from this fixed seed, not the run's:
# how many candidate equations hold in a random algebra, and so how far each
# check scans, varies by up to 1.5x from one draw to the next, which would
# move equations_per_s with the seed.  The candidate pairs are the run's.
SEARCH_ALG_SEED = 20070484

CLI_ARGV_NODES = 30_000  # argv terms stay under Linux's 128 KiB per argument


def sig_json(entries):
    return {"symbols": [{"name": n, "arity": a} for n, a in entries]}


def alg_json(entries, size, tables):
    return {"carrier": size, "tables": {n: list(t) for (n, _), t in zip(entries, tables)}}


# ---------------------------------------------------------------- algebras

def table(size, arity, fn):
    return [fn(*args) % size for args in itertools.product(range(size), repeat=arity)]


def zn_group(n):
    """Z_n over GRP_SIG: m = +, i = negation, e = 0."""
    return [table(n, 2, lambda a, b: a + b), table(n, 1, lambda a: -a), [0]]


def zn_ring(n):
    """Z_n over RING_SIG: e = 0, i = negation, m = +, t(x,y,z) = x*y + z."""
    return [[0], table(n, 1, lambda a: -a), table(n, 2, lambda a, b: a + b),
            table(n, 3, lambda a, b, c: a * b + c)]


S3_PERMS = list(itertools.permutations(range(3)))


def s3_group():
    """The symmetric group S_3 over GRP_SIG; elements are permutations in
    lexicographic order, m(p, q) = p after q."""
    idx = {p: k for k, p in enumerate(S3_PERMS)}
    mul = [idx[tuple(p[q[j]] for j in range(3))] for p in S3_PERMS for q in S3_PERMS]
    inv = []
    for p in S3_PERMS:
        q = [0] * 3
        for j, pj in enumerate(p):
            q[pj] = j
        inv.append(idx[tuple(q)])
    return [mul, inv, [idx[(0, 1, 2)]]]


def group_alg(spec):
    """(carrier size, GRP_SIG tables) for "S3" or an int n (Z_n)."""
    if spec == "S3":
        return 6, s3_group()
    return spec, zn_group(spec)


def random_alg(rng, entries, size):
    return [[rng.randrange(size) for _ in range(size ** a)] for _, a in entries]


# ------------------------------------------------------------- big terms

def lukasiewicz(rng, arities):
    """Shuffle an arity multiset with sum(a - 1) == -1 and rotate it to the
    unique rotation that is a prefix-order term (cycle lemma)."""
    rng.shuffle(arities)
    low, at, s = 0, 0, 0
    for k, a in enumerate(arities):
        s += a - 1
        if s < low:
            low, at = s, k + 1
    return arities[at:] + arities[:at]


def big_term(rng, shape, n, tables):
    """One term of about n nodes over BIG_SIG.

    Returns (ops, text, depth, value) where depth and value (in the
    algebra with the given tables) come from this function's own pass.
    """
    leaf = lambda: rng.randrange(2)  # c or d
    if shape == "chain":
        ops = [2] * (n - 1) + [leaf()]
    elif shape == "comb":
        k = (n - 1) // 2
        ops = [3] * k + [leaf() for _ in range(k + 1)]
    else:
        if shape == "binary":
            n3, n2 = 0, (n - 1) // 2
        else:  # mixed arities 0..3
            n3 = int(n * rng.uniform(0.08, 0.12))
            n2 = int(n * rng.uniform(0.12, 0.18))
        n0 = 1 + n2 + 2 * n3
        n1 = n - n0 - n2 - n3
        arities = lukasiewicz(rng, [0] * n0 + [1] * n1 + [2] * n2 + [3] * n3)
        head = {1: 2, 2: 3, 3: 4}
        ops = [head[a] if a else leaf() for a in arities]
    return ops, _text(ops), *_depth_value(ops, tables)


_ARITY = [a for _, a in BIG_SIG]
_NAME = [nm for nm, _ in BIG_SIG]


def _depth_value(ops, tables):
    depths, values = [], []
    for op in reversed(ops):
        a = _ARITY[op]
        if a == 0:
            depths.append(1)
            values.append(tables[op][0])
            continue
        kids_d = depths[-a:]
        kids_v = values[-a:]
        del depths[-a:], values[-a:]
        index = 0
        for v in reversed(kids_v):  # last pushed = leftmost argument
            index = index * 4 + v
        depths.append(1 + max(kids_d))
        values.append(tables[op][index])
    if len(values) != 1:
        raise ValueError("generator produced a non-term")
    return depths[0], values[0]


def _text(ops):
    out = []
    open_counts = []
    for op in ops:
        out.append(_NAME[op])
        if _ARITY[op]:
            out.append("(")
            open_counts.append(_ARITY[op])
            continue
        while open_counts:
            open_counts[-1] -= 1
            if open_counts[-1]:
                out.append(",")
                break
            out.append(")")
            open_counts.pop()
    return "".join(out)


# ---------------------------------------------------------------- theories

def bracket(rng, items):
    """A random binary bracketing of items under the symbol m."""
    if len(items) == 1:
        return items[0]
    cut = rng.randrange(1, len(items))
    return f"m({bracket(rng, items[:cut])},{bracket(rng, items[cut:])})"


def group_theory(rng, max_vars, abelian):
    """Laws that hold in every group (abelian: every abelian group), with
    one seeded long law per variable count from 4 to max_vars."""
    eqs = [
        ("assoc", ["x", "y", "w"], "m(m(x,y),w)", "m(x,m(y,w))"),
        ("unit", ["x"], "m(x,e)", "x"),
        ("inv", ["x"], "m(x,i(x))", "e"),
        ("anti", ["x", "y"], "i(m(x,y))", "m(i(y),i(x))"),
    ]
    if abelian:
        eqs.insert(0, ("comm", ["x", "y"], "m(x,y)", "m(y,x)"))
    for k in range(4, max_vars + 1):
        names = [f"v{j}" for j in range(k)]
        order = names[:]
        if abelian:
            rng.shuffle(order)
        eqs.append((f"law{k}", names, bracket(rng, names), bracket(rng, order)))
    return {
        "name": ("abelian" if abelian else "group") + f"-{max_vars}",
        "equations": [
            {"label": lb, "vars": vs, "lhs": lhs, "rhs": rhs} for lb, vs, lhs, rhs in eqs
        ],
    }


def assignment_space(theory, size):
    return sum(size ** len(row["vars"]) for row in theory["equations"])


# ------------------------------------------------------------------- spec

class Writer:
    """Writes fixture files into the run directory and records them in the
    manifest that set-up and the worker load."""

    def __init__(self, root):
        self.root = root
        self.manifest = []

    def put(self, name, data, kind, sig=None):
        path = os.path.join(self.root, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, separators=(",", ":"))
        self.manifest.append({"key": name, "kind": kind, "path": path, "sig": sig})
        return path


def pipeline_spec(rng, w, run_dir, scale):
    n = SCALES[scale]["big_nodes"]
    w.put("big_sig", sig_json(BIG_SIG), "signature")
    tables = random_alg(rng, BIG_SIG, 4)
    w.put("big_alg", alg_json(BIG_SIG, 4, tables), "algebra", "big_sig")
    cases = []
    for shape in ("chain", "binary", "mixed", "comb"):
        ops, text, dep, value = big_term(rng, shape, n, tables)
        path = os.path.join(run_dir, f"term_{shape}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        cases.append({"shape": shape, "path": path, "nodes": len(ops),
                      "depth": dep, "value": value})
    return {"sig": "big_sig", "alg": "big_alg", "cases": cases}


def model_spec(rng, w, run_dir, scale):
    w.put("grp_sig", sig_json(GRP_SIG), "signature")
    items = []
    for spec, max_vars in SCALES[scale]["model"]:
        size, tables = group_alg(spec)
        w.put(f"model_alg_{spec}", alg_json(GRP_SIG, size, tables), "algebra", "grp_sig")
        theory = group_theory(rng, max_vars, abelian=spec != "S3")
        w.put(f"model_theory_{spec}", theory, "theory", "grp_sig")
        items.append({"alg": f"model_alg_{spec}", "theory": f"model_theory_{spec}",
                      "assignments": assignment_space(theory, size)})
    return {"items": items}


def hom_spec(rng, w, run_dir, scale):
    n = SCALES[scale]["hom_n"]
    w.put("ring_sig", sig_json(RING_SIG), "signature")
    w.put(f"ring_{n}", alg_json(RING_SIG, n, zn_ring(n)), "algebra", "ring_sig")
    items = []
    for m in [m for m in range(2, n) if n % m == 0]:
        w.put(f"ring_{m}", alg_json(RING_SIG, m, zn_ring(m)), "algebra", "ring_sig")
        tuples = sum(n ** a for _, a in RING_SIG)
        items.append({"source": f"ring_{n}", "target": f"ring_{m}",
                      "map": [x % m for x in range(n)], "tuples": tuples})
    return {"items": items}


def search_spec(rng, w, run_dir, scale):
    s = SCALES[scale]
    w.put("grp_sig", sig_json(GRP_SIG), "signature")
    algs = []
    alg_rng = random.Random(SEARCH_ALG_SEED)
    for size in (2, 3, 4):
        w.put(f"search_z{size}", alg_json(GRP_SIG, size, zn_group(size)), "algebra", "grp_sig")
        w.put(f"search_r{size}", alg_json(GRP_SIG, size, random_alg(alg_rng, GRP_SIG, size)),
              "algebra", "grp_sig")
        algs += [f"search_z{size}", f"search_r{size}"]
    maps = []
    for src, dst in s["maps"]:
        size, tables = group_alg(src)
        w.put(f"maps_src_{src}", alg_json(GRP_SIG, size, tables), "algebra", "grp_sig")
        w.put(f"maps_dst_{dst}", alg_json(GRP_SIG, dst, zn_group(dst)), "algebra", "grp_sig")
        maps.append({"source": f"maps_src_{src}", "target": f"maps_dst_{dst}"})
    return {"algs": algs, "pool_len": s["pool_len"], "pairs": s["pairs"],
            "pair_seed": rng.randrange(2 ** 32), "maps": maps,
            "enum_len": s["enum_len"], "vars": 3}


def cli_spec(rng, w, run_dir, scale):
    """The fixed seeded mix of `ua` invocations with their known exit codes
    (and stdout, where it is a single known number)."""
    nat = w.put("cli_nat", sig_json(NAT_SIG), "signature")
    n4 = w.put("cli_n4", alg_json(NAT_SIG, 4, [[0], [1, 2, 3, 0]]), "algebra", "cli_nat")
    grp = w.put("cli_grp", sig_json(GRP_SIG), "signature")
    z5 = w.put("cli_z5", alg_json(GRP_SIG, 5, zn_group(5)), "algebra", "cli_grp")
    s3 = w.put("cli_s3", alg_json(GRP_SIG, 6, s3_group()), "algebra", "cli_grp")
    ab = w.put("cli_abelian", group_theory(rng, 4, abelian=True), "theory", "cli_grp")
    ring = w.put("cli_ring", sig_json(RING_SIG), "signature")
    r12 = w.put("cli_r12", alg_json(RING_SIG, 12, zn_ring(12)), "algebra", "cli_ring")
    r4 = w.put("cli_r4", alg_json(RING_SIG, 4, zn_ring(4)), "algebra", "cli_ring")
    big = w.put("cli_big", sig_json(BIG_SIG), "signature")
    tables = random_alg(rng, BIG_SIG, 4)
    b4 = w.put("cli_b4", alg_json(BIG_SIG, 4, tables), "algebra", "cli_big")
    _, binary, binary_depth, _ = big_term(rng, "binary", CLI_ARGV_NODES, tables)
    _, mixed, _, mixed_value = big_term(rng, "mixed", CLI_ARGV_NODES, tables)

    k = rng.randrange(5, 40)
    small = "s(" * k + "z" + ")" * k
    n = CLI_ARGV_NODES - 1
    chain = "s(" * n + "z" + ")" * n
    quotient = ",".join(f"{x}:{x % 4}" for x in range(12))
    twisted = ",".join(f"{x}:{(x + 1) % 4}" for x in range(12))  # moves 0, breaks e
    mix = [
        ("check", ["--sig", nat, " ".join(["s"] * k + ["z"])], 0, None),
        ("check", ["--sig", nat, "s s", "s z z"], 1, None),
        ("check", ["--sig", nat, " ".join(["s"] * n + ["z"])], 0, None),
        ("depth", ["--sig", nat, small], 0, f"{k + 1}\n"),
        ("depth", ["--sig", nat, chain], 0, f"{n + 1}\n"),
        ("depth", ["--sig", big, binary], 0, f"{binary_depth}\n"),
        ("depth", ["--sig", nat, "s(q)"], 2, None),
        ("eval", ["--sig", nat, "--alg", n4, small], 0, f"{k % 4}\n"),
        ("eval", ["--sig", nat, "--alg", n4, chain], 0, f"{n % 4}\n"),
        ("eval", ["--sig", big, "--alg", b4, mixed], 0, f"{mixed_value}\n"),
        ("hom", ["--sig", ring, "--from", r12, "--to", r4, "--map", quotient], 0, None),
        ("hom", ["--sig", ring, "--from", r12, "--to", r4, "--map", twisted], 1, None),
        ("hom", ["--sig", ring, "--from", r12, "--to", r4, "--map", "0:0,1"], 2, None),
        ("sat", ["--sig", grp, "--alg", z5, "--theory", ab], 0, None),
        ("sat", ["--sig", grp, "--alg", s3, "--theory", ab], 1, None),
        ("enum", ["--sig", grp, "--max-len", "6"], 0, None),
        ("enum", ["--sig", nat, "--max-len", str(rng.randrange(3, 9))], 0, None),
    ]
    runs = []
    for sub, args, code, out in mix:
        json_flag = rng.random() < 0.5
        runs.append({
            "sub": sub,
            "argv": [sub] + (["--json"] if json_flag else []) + args,
            "exit": code,
            "stdout": None if json_flag else out,
        })
    warm = [r for r in runs if r["sub"] == "sat" and r["exit"] == 0][0]["argv"]
    return {"mix": runs, "warmup": warm}


# Input sections; `search` holds the inputs of the equations, maps and
# enum parts.  The cli mix has one scale.
SPECS = {"pipeline": pipeline_spec, "model": model_spec, "hom": hom_spec,
         "search": search_spec, "cli": cli_spec}


def write_inputs(run_dir, seed, full):
    """Generate every input of one run.  Sections named in `full` get the
    full scale, the others the probe scale."""
    rng = random.Random(seed)
    w = Writer(run_dir)
    parts = {}
    for name, build in SPECS.items():
        scale = "full" if name in full else "probe"
        parts[name] = build(random.Random(rng.randrange(2 ** 32)), w, run_dir, scale)
    unique = {entry["key"]: entry for entry in w.manifest}
    return {"manifest": list(unique.values()), "parts": parts}
