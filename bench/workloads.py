"""Seeded inputs for the benchmark's workloads, and the check for each output.

Every workload is an endless stream of templates drawn from a random.Random
seeded with the workload name and the run's seed. A template gives copies
of one input that differ only in the names of arguments, atoms and
constants: the copies cost the program the same work, but no cache keyed
on the input can serve one copy from another. A copy is an Item: its call
runs the program and returns the output, and its check raises WrongOutput
unless the output agrees with the reference semantics in reference.py or
with the digest recorded in digests.json.

Streams repeat a fixed block of item kinds, so any prefix of a stream has
the same mix of kinds, and a run's median and 90th-percentile items fall
inside one kind rather than on the edge between two. The solve_higher
networks and the command lines of cli-mix come from fixed pools, because
their outputs are checked against recorded digests; they recur within a run
in a seeded order. The functions of g3arg are looked up at call time, so
span wrappers installed by spans.py see them.

Inputs come only from generators in this file. In particular g3arg.corpus
is not used: a change to how it draws from its generator would silently
change the workload.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from pathlib import Path
from typing import Any, Callable, NamedTuple

import reference as ref
from g3arg import aaf, af, cli, meta, pred, prop, syntax, translate

DIGESTS = Path(__file__).with_name("digests.json")
POOL_SEED = "g3arg-bench-pool-v2"
# The timed loop runs copies 0 .. COPIES - 1; warm-up runs copy WARMUP_COPY,
# so that nothing it leaves behind is keyed on a timed input.
COPIES = 2
WARMUP_COPY = COPIES
NAMES = "abcdefghi"
DENSITIES = (0.15, 0.35, 0.6)


class WrongOutput(Exception):
    """The program returned an output the reference rejects."""


class UnexpectedExit(Exception):
    """The command line tool returned an exit code the input does not call for."""


class Item(NamedTuple):
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


class Template(NamedTuple):
    """``make(rng, copy)`` builds copy number ``copy`` from its own generator."""

    make: Callable[[random.Random, int], Item]
    seed: int

    def copy(self, copy: int) -> Item:
        return self.make(random.Random(self.seed), copy)


def template(rng: random.Random, make, *args) -> Template:
    return Template(functools.partial(make, *args), rng.getrandbits(64))


def rename(names, copy: int) -> list[str]:
    return [f"{x}_{copy}" for x in names]


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongOutput(what)


def digest(data: Any) -> str:
    text = data if isinstance(data, str) else json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


_recorded: dict[str, dict[str, str]] = {}


def recorded(table: str, key: str) -> str:
    if not _recorded:
        _recorded.update(json.loads(DIGESTS.read_text()))
    try:
        return _recorded[table][key]
    except KeyError:
        raise WrongOutput(f"no recorded {table} digest for input {key}") from None


def labels(labs) -> list[dict[str, str]]:
    return [{x: v.value for x, v in lab.items()} for lab in labs]


def random_attacks(rng, names, density):
    """A fixed share of all pairs, self-attacks included.

    A fixed count rather than a coin per pair keeps the cost of items of
    one kind close together.
    """
    pairs = [(u, x) for u in names for x in names]
    return sorted(rng.sample(pairs, round(density * len(pairs))))


def rotation(rng, entries):
    """Endless cycle over a seeded permutation: every pass has the same mix."""
    order = list(entries)
    rng.shuffle(order)
    return itertools.cycle(order)


def densities():
    """Per-kind rotation through DENSITIES, so each kind gets the same mix."""
    counters: dict = {}
    return lambda kind: DENSITIES[next(counters.setdefault(kind, itertools.count())) % 3]


# verify-corpus ------------------------------------------------------------

VERIFY_BLOCK = (5, 4, 5, 6, 5, 5, 4, 5, 6, 5)


def verify_item(n: int, density: float, rng, copy: int) -> Item:
    names = rename(NAMES[:n], copy)
    attacks = random_attacks(rng, names, density)
    fw = af.Framework.make(names, attacks)

    def call():
        return (
            translate.verify_prop_theory(fw),
            translate.verify_und_free(fw),
            translate.verify_pred_theory(fw),
        )

    def check(out):
        labs = ref.complete_labellings(names, attacks)
        total, st = len(labs), len(ref.stable(labs))
        prop_report, und_report, pred_report = out
        for what, r in (("prop", prop_report), ("pred", pred_report)):
            expect(r.ok and r.model_count == r.labelling_count == r.matched == total,
                   f"verify_{what} on {fw}: {r}")
        for r, want in ((und_report.stable, st), (und_report.non_stable, total - st)):
            expect(r.ok and r.model_count == r.labelling_count == r.matched == want,
                   f"verify_und_free on {fw}: {r}")
        expect(und_report.union_ok, f"verify_und_free union on {fw}")

    return Item(f"verify-n{n}", call, check)


def verify_corpus(rng):
    density = densities()
    for n in itertools.cycle(VERIFY_BLOCK):
        yield template(rng, verify_item, n, density(n))


# labelling ----------------------------------------------------------------

LABELLING_BLOCK = (
    "enc", 7, "enc", 9, 7, "enc", 8, 9, "enc", 7,
    7, "enc", 9, 8, "enc", 7, 8, "enc", 7, 9,
)
SHAPES = ("acyclic", "even-cycle", "odd-cycle", "random")


def shaped_attacks(rng, names, shape, density):
    """round(density * n * n / 2) attacks, whatever the shape."""
    n = len(names)
    m = round(density * n * n / 2)
    if shape == "acyclic":
        order = rng.sample(names, n)
        return sorted(rng.sample([(order[i], order[j]) for i in range(n)
                                  for j in range(i + 1, n)], m))
    if shape == "random":
        return sorted(rng.sample([(u, x) for u in names for x in names], m))
    k = rng.choice(range(2 if shape == "even-cycle" else 3, n + 1, 2))
    ring = rng.sample(names, k)
    edges = {(ring[i], ring[(i + 1) % k]) for i in range(k)}
    chords = [(u, x) for u in names for x in names if u != x and (u, x) not in edges]
    return sorted(edges.union(rng.sample(chords, max(m - k, 0))))


def labelling_item(n: int, shape: str, density: float, rng, copy: int) -> Item:
    names = rename(NAMES[:n], copy)
    attacks = shaped_attacks(rng, names, shape, density)
    fw = af.Framework.make(names, attacks)

    def call():
        labs = af.enumerate_complete(fw)
        return labs, af.classify(labs)

    def check(out):
        labs, split = out
        want = ref.complete_labellings(names, attacks)
        expect(labels(labs) == want, f"enumerate_complete on {fw}")
        expect(labels([split.grounded]) == [ref.grounded(names, attacks)],
               f"grounded labelling of {fw}")
        expect(labels(split.stable) == ref.stable(want), f"stable labellings of {fw}")
        expect(labels(split.preferred) == ref.preferred(want),
               f"preferred labellings of {fw}")

    return Item(f"labelling-n{n}", call, check)


def projected(labs, base):
    return [{x: m[x] for x in base} for m in labels(labs)]


def conjunctive_item(rng, copy: int) -> Item:
    names = rename(NAMES[:rng.choice((3, 4))], copy)
    groups = {(frozenset(rng.sample(names, rng.randint(1, 3))), rng.choice(names))
              for _ in range(rng.randint(2, 4))}
    net = aaf.ConjunctiveNet.make(names, [(sorted(g), z) for g, z in groups])

    def call():
        fw, base = aaf.encode_conjunctive(net)
        return fw, base, af.enumerate_complete_determined(fw, sorted(base))

    def check(out):
        fw, base, labs = out
        expect(base == set(names), f"encode_conjunctive base {sorted(base)}")
        expect(labels(labs) == ref.complete_labellings(fw.arguments, fw.attacks),
               f"enumerate_complete_determined on encoded {net}")
        for m in projected(labs, names):
            fired = {z for g, z in groups if all(m[y] == "in" for y in g)}
            expect(all(m[z] == "out" for z in fired) and
                   all(z in fired for z in names if m[z] == "out"),
                   f"group attacks of {net} read back from {m}")

    return Item("labelling-conjunctive", call, check)


def adf_item(rng, copy: int) -> Item:
    names = rename(NAMES[:rng.choice((3, 4))], copy)
    table = {}
    for x in names:
        parents = tuple(sorted(rng.sample(names, rng.randint(0, 2))))
        vectors = list(itertools.product((0, 1), repeat=len(parents)))
        table[x] = (parents, rng.sample(vectors, rng.randint(0, min(2, len(vectors)))))
    net = aaf.ADFNet.make(names, table)

    def call():
        fw, base = aaf.encode_adf(net)
        return fw, base, af.enumerate_complete_determined(fw, sorted(base))

    def check(out):
        fw, base, labs = out
        expect(base == set(names), f"encode_adf base {sorted(base)}")
        expect(labels(labs) == ref.complete_labellings(fw.arguments, fw.attacks),
               f"enumerate_complete_determined on encoded {net}")
        two_valued = {tuple(sorted((x, int(v == "in")) for x, v in m.items()))
                      for m in projected(labs, names) if "und" not in m.values()}
        want = {tuple(sorted(h.items())) for h in ref.adf_two_valued(names, table)}
        expect(two_valued == want, f"two-valued models of {net}")

    return Item("labelling-adf", call, check)


def labelling(rng):
    density = densities()
    shapes: dict[int, itertools.cycle] = {}
    encoders = itertools.cycle((conjunctive_item, adf_item))
    for kind in itertools.cycle(LABELLING_BLOCK):
        if kind == "enc":
            yield template(rng, next(encoders))
            continue
        # The largest frameworks keep one density: their spread sets item_p90_ms.
        d = DENSITIES[1] if kind == 9 else density(kind)
        shape = next(shapes.setdefault(kind, itertools.cycle(SHAPES)))
        yield template(rng, labelling_item, kind, shape, d)


# quantified ---------------------------------------------------------------

QUANTIFIED_BLOCK = (
    "aaf", "higher", "diagram", "higher", "aaf",
    "diagram", "higher", "aaf", "higher", "diagram",
)
META_KINDS = (
    ("attacks_all_others", 1),
    ("attacked_by_all_others", 1),
    ("same_targets", 2),
    ("attacks_self_attackers", 1),
)
# Closed formulas over the constants {a} and {b}, for formula units.
UNIT_FORMULAS = (
    "exists X (R(X,{a}))",
    "forall X (R(X,X))",
    "R({a},{b}) | In({b})",
    "~R({b},{a})",
    "In({a}) & ~In({b})",
    "exists X (R({a},X) & In(X))",
    "forall X (In(X) -> R(X,{b}))",
    "R({a},{a}) -> In({b})",
)
ONE_NODE_FORMULAS = ("R({a},{a})", "~R({a},{a})", "In({a}) | R({a},{a})",
                     "exists X (~R(X,X))")


def diagram_item(rng, copy: int) -> Item:
    names = rename(NAMES[:3], copy)
    # One density: the diagram items' spread sets item_p90_ms.
    attacks = random_attacks(rng, names, DENSITIES[1])
    fw = af.Framework.make(names, attacks)

    def call():
        return translate.verify_domain_diagram(fw)

    def check(r):
        want = len(ref.diagram_pairs(names, attacks, ref.complete_labellings(names, attacks)))
        expect(r.ok and r.interp_count == r.matched == r.expected_count == want,
               f"verify_domain_diagram on {fw}: {r}")

    return Item("quantified-diagram", call, check)


def aaf_item(rng, copy: int) -> Item:
    names = rename(NAMES[:3], copy)
    conjuncts = [(kind, *rng.sample(names, arity))
                 for kind, arity in rng.sample(META_KINDS, rng.randint(1, 3))]
    frame = aaf.AxiomaticFrame.make(
        names, prop.conj([pred.build_meta(*c) for c in conjuncts]))

    def call():
        return aaf.aaf_extensions(frame)

    def check(out):
        got = [(rel, labels(labs)) for rel, labs in out]
        expect(got == ref.aaf_family(names, conjuncts), f"aaf_extensions for {conjuncts}")

    return Item("quantified-aaf", call, check)


def higher_spec(rng, nodes, count: int) -> dict:
    """A higher network with ``count`` formula or relation-atom units."""
    formulas = UNIT_FORMULAS if len(nodes) > 1 else ONE_NODE_FORMULAS
    constants = {"a": nodes[0], "b": nodes[-1]}
    pairs = [f"r({u},{x})" for u in nodes for x in nodes]
    units, wffs = [], []
    for k in range(count):
        free = [p for p in pairs if p not in units]
        if free and rng.random() < 0.4:
            units.append(rng.choice(free))
        else:
            wffs.append((f"w{k}", rng.choice(formulas).format(**constants)))
            units.append(f"w{k}")
    ends = list(nodes) + units
    atts = {(u, rng.choice(ends)) for u in units}
    atts.update(tuple(rng.sample(ends, 2)) for _ in range(rng.randint(0, 2)))
    return {"nodes": list(nodes), "wffs": wffs, "atts": sorted(atts)}


def higher_pool() -> list[int]:
    """Seeds of the networks solve_higher runs on: 2 nodes, 2 units, 8 unknowns."""
    rng = random.Random(POOL_SEED + ":higher")
    return [rng.getrandbits(64) for _ in range(20)]


def higher_network(seed: int, copy: int):
    spec = higher_spec(random.Random(seed), rename("ab", copy), 2)
    hn = meta.HigherNetwork.make(
        spec["nodes"], [(n, syntax.parse_pred(t)) for n, t in spec["wffs"]], spec["atts"])
    return spec, hn


def higher_digest(models) -> str:
    return digest([
        [sorted((x, v.name) for x, v in m.interp.in_val.items()),
         sorted((f"{u},{x}", v.name) for (u, x), v in m.interp.r_val.items()),
         [(name, v.name) for name, v in m.statuses]]
        for m in models
    ])


def higher_item(seed: int, rng, copy: int) -> Item:
    spec, hn = higher_network(seed, copy)
    key = digest(spec)

    def call():
        return meta.solve_higher(hn)

    def check(models):
        expect(higher_digest(models) == recorded("higher", key),
               f"solve_higher on {spec}")

    return Item("quantified-higher", call, check)


def quantified(rng):
    higher = rotation(rng, higher_pool())
    for kind in itertools.cycle(QUANTIFIED_BLOCK):
        if kind == "aaf":
            yield template(rng, aaf_item)
        elif kind == "higher":
            yield template(rng, higher_item, next(higher))
        else:
            yield template(rng, diagram_item)


# cli-mix ------------------------------------------------------------------

# small: <=3-argument documents of every species through every subcommand;
# valid: formulas of <=4 atoms; large: documents with tens of arguments and
# hundreds of facts through commands that run no search; bad: malformed
# input, exit 1. Each category's calls are taken in a seeded rotation.
CLI_BLOCK = (
    "small", "small", "valid", "small", "large", "small", "small", "bad",
    "small", "large", "small", "small", "valid", "small", "large", "small",
    "small", "large", "small", "small",
)
JSON = ("--format", "json")


class Call(NamedTuple):
    """One command line: argv with "{doc}" standing for the document's path."""

    argv: tuple[str, ...]
    doc: str | None = None
    code: int = 0
    formula: tuple | None = None

    @property
    def key(self) -> str:
        return digest([self.argv, self.doc])


def plain_doc(names, attacks, extra=()) -> str:
    facts = [f"arg({x})." for x in names] + [f"att({u},{x})." for u, x in attacks]
    return " ".join(facts + list(extra)) + "\n"


def higher_doc(spec: dict) -> str:
    facts = [f"arg({x})." for x in spec["nodes"]]
    facts += [f'wff({n}, "{t}").' for n, t in spec["wffs"]]
    facts += [f"att({u}, {x})." for u, x in spec["atts"]]
    return "\n".join(facts) + "\n"


def both_formats(argv, doc=None, code=0, formula=None):
    return [Call(argv, doc, code, formula), Call(argv + JSON, doc, code, formula)]


def random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.06:
            return ("und",)
        if roll < 0.1:
            return (rng.choice(("top", "bot")),)
        return ("atom", rng.choice(atoms))
    op = rng.choice(("not", "and", "or", "imp", "imp"))
    if op == "not":
        return (op, random_formula(rng, atoms, depth - 1))
    return (op, random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))


def acceptance_text(rng, names) -> str:
    rows = []
    for _ in range(rng.randint(1, 2)):
        lits = [("" if rng.random() < 0.5 else "~") + p
                for p in rng.sample(names, rng.randint(1, min(3, len(names))))]
        rows.append(" & ".join(lits))
    return " | ".join(rows) if rng.random() < 0.9 else rng.choice(("true", "false"))


def group_facts(rng, names, count) -> list[str]:
    return [f"catt([{','.join(sorted(rng.sample(names, rng.randint(1, 3))))}], "
            f"{rng.choice(names)})." for _ in range(count)]


@functools.cache
def cli_pool(copy: int) -> dict[str, list[Call]]:
    """Every call of the cli-mix workload, with the names of the given copy."""
    rng = random.Random(POOL_SEED + ":cli")
    pool: dict[str, list[Call]] = {k: [] for k in ("small", "valid", "large", "bad")}
    small = pool["small"]
    for n in (1, 2, 2, 3, 3, 3):
        names = rename(NAMES[:n], copy)
        doc = plain_doc(names, random_attacks(rng, names, rng.choice(DENSITIES)))
        for s in ("complete", "stable", "grounded", "preferred"):
            small += both_formats(("extensions", "{doc}", "--semantics", s), doc)
        for m in ("prop", "und-free", "pred") + (("diagram",) if n <= 2 else ()):
            small += both_formats(("translate", "{doc}", "--mode", m), doc)
        for c in ("prop", "und-free", "pred") + (("diagram",) if n <= 2 else ()):
            small += both_formats(("verify", "{doc}", "--claim", c), doc)
        small += both_formats(("models", "{doc}"), doc)
    for n in (2, 3):
        names = rename(NAMES[:n], copy)
        atoms = rename("pq", copy)
        insts = [f'inst({x}, "{ref.render(random_formula(rng, atoms, 2))}").'
                 for x in rng.sample(names, rng.randint(1, 2))]
        doc = plain_doc(names, random_attacks(rng, names, 0.35), insts)
        small += both_formats(("extensions", "{doc}"), doc)
        small += both_formats(("models", "{doc}"), doc)
    for count in (1, 2, 1, 2):
        doc = higher_doc(higher_spec(rng, rename("a", copy), count))
        small += both_formats(("translate", "{doc}", "--mode", "higher"), doc)
        small += both_formats(("solve-higher", "{doc}"), doc)
    names = rename(NAMES[:3], copy)
    for _ in range(3):
        datts = [f"datt({z}, [{','.join(sorted(rng.sample(names, rng.randint(1, 2))))}])."
                 for z in rng.sample(names, rng.randint(1, 2))]
        doc = plain_doc(names, (), datts)
        small += both_formats(("encode", "{doc}"), doc)
        small += both_formats(("encode", "{doc}", "--from", "disjunctive"), doc)
        doc = plain_doc(names, (), group_facts(rng, names, rng.randint(1, 3)))
        small += both_formats(("encode", "{doc}"), doc)
        small += both_formats(("encode", "{doc}", "--project"), doc)
        accs = [f'acc({x}, "{acceptance_text(rng, names)}").' for x in names]
        doc = plain_doc(names, (), accs)
        small += both_formats(("encode", "{doc}"), doc)
        small += both_formats(("encode", "{doc}", "--project"), doc)
    names = rename(NAMES[:2], copy)
    for _ in range(3):
        kind, arity = rng.choice(META_KINDS)
        psi = syntax.format_formula(pred.build_meta(kind, *rng.sample(names, arity)))
        doc = plain_doc(names, (), [f'psi "({psi}) & {names[0]} != {names[1]}".'])
        small += both_formats(("aaf", "{doc}"), doc)
    guarded = higher_doc(higher_spec(rng, rename("abc", copy), 1))
    small += both_formats(("solve-higher", "{doc}", "--max-unknowns", "6"), guarded, 3)

    atoms = rename("pqrs", copy)
    for _ in range(24):
        f = random_formula(rng, atoms, 4)
        pool["valid"] += both_formats(("valid", ref.render(f)), None, 0, f)

    names = rename([f"x{i}" for i in range(40)], copy)
    doc = plain_doc(names, random_attacks(rng, names, 0.15))
    for m in ("prop", "und-free", "pred"):
        pool["large"] += both_formats(("translate", "{doc}", "--mode", m), doc)
    doc = plain_doc(names, (), group_facts(rng, names, 150))
    pool["large"] += both_formats(("encode", "{doc}"), doc)
    accs = [f'acc({x}, "{acceptance_text(rng, names[:25])}").' for x in names[:25]]
    pool["large"] += both_formats(("encode", "{doc}"), plain_doc(names[:25], (), accs))
    x = names
    atts = random_attacks(rng, x[:20], 0.1) + [(x[0], f"r({x[1]},{x[2]})"),
                                                (f"r({x[3]},{x[4]})", x[5])]
    pool["large"] += both_formats(("translate", "{doc}", "--mode", "higher"),
                                  plain_doc(x[:20], atts))

    plain = "arg(a). arg(b). att(a,b).\n"
    pool["bad"] = [
        Call(("extensions", "{doc}"), "arg(a). att(a,b).\n", 1),
        Call(("extensions", "{doc}"), "arg(a) arg(b).\n", 1),
        Call(("models", "{doc}"), "arg(a). att(a,a)\n", 1),
        Call(("translate", "{doc}", "--mode", "higher"), 'arg(a). wff(w, "R(a,").\n', 1),
        Call(("extensions", "{doc}"), "arg(a). foo(a).\n", 1),
        Call(("encode", "{doc}"), "arg(a). arg(b). datt(a,[b]). catt([a],b).\n", 1),
        Call(("valid", "a -> "), None, 1),
        Call(("valid", "p & (q | r"), None, 1),
        Call(("extensions", "{doc}", "--semantics", "stable"),
             'arg(x). inst(x, "p | ~p").\n', 1),
        Call(("encode", "{doc}"), plain, 1),
        Call(("translate", "{doc}", "--mode", "higher"), plain, 1),
        Call(("extensions", "{doc}", "--semantics", "ideal"), plain, 1),
        Call(("aaf", "{doc}"), 'arg(a). psi "In(a)".\n', 1),
    ]
    return pool


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_argv(c: Call, workdir: Path) -> list[str]:
    if c.doc is None:
        return list(c.argv)
    path = workdir / f"{digest(c.doc)}.facts"
    if not path.exists():
        path.write_text(c.doc, encoding="utf-8")
    return [str(path) if a == "{doc}" else a for a in c.argv]


def check_countermodel(c: Call, stdout: str) -> None:
    want = ref.countermodel(c.formula)
    if c.argv[-1] == "json":
        payload = json.loads(stdout)
        verdict, counter = payload["verdict"], payload["countermodel"]
    else:
        lines = dict(line.split(": ", 1) for line in stdout.splitlines())
        verdict = lines["verdict"]
        counter = lines.get("countermodel")
        if counter is not None:
            counter = dict(p.split("=") for p in counter.split())
    expect(verdict == ("VALID" if want is None else "INVALID"), f"verdict for {c.argv}")
    if want is not None:
        letters = {False: "f", True: "t"}
        expect(counter == {x: f"({letters[h]},{letters[t]})" for x, (h, t) in want.items()},
               f"countermodel for {c.argv}")


def cli_item(category: str, c: Call, workdir: Path) -> Item:
    argv = cli_argv(c, workdir)

    def call():
        result = run_cli(argv)
        if result[0] != c.code:
            raise UnexpectedExit(f"{c.argv} exited {result[0]}, expected {c.code}")
        return result

    def check(result):
        code, stdout, stderr = result
        if code:
            expect(stdout == "" and stderr.startswith("error: ") and stderr.count("\n") == 1,
                   f"{c.argv} error report {stderr!r}")
            return
        expect(stderr == "", f"{c.argv} wrote to stderr")
        expect(digest(stdout) == recorded("cli", c.key), f"{c.argv} output bytes")
        if c.formula is not None:
            check_countermodel(c, stdout)

    return Item(f"cli-{category}", call, check)


def cli_template(category: str, index: int, workdir: Path, rng, copy: int) -> Item:
    return cli_item(category, cli_pool(copy)[category][index], workdir)


def cli_mix(rng, workdir: Path):
    order = {c: rotation(rng, range(len(calls))) for c, calls in cli_pool(0).items()}
    for category in itertools.cycle(CLI_BLOCK):
        yield template(rng, cli_template, category, next(order[category]), workdir)


STREAMS = {
    "verify-corpus": lambda rng, workdir: verify_corpus(rng),
    "labelling": lambda rng, workdir: labelling(rng),
    "quantified": lambda rng, workdir: quantified(rng),
    "cli-mix": cli_mix,
}
# Templates per warm-up pass (one of each kind), and per round of the timed
# loop or traced pass.
WARMUP_ITEMS = {"verify-corpus": 4, "labelling": 7, "quantified": 3, "cli-mix": 20}
ROUND_ITEMS = {"verify-corpus": 20, "labelling": 20, "quantified": 20, "cli-mix": 400}


def stream(workload: str, seed, workdir: Path):
    """Endless templates of one workload."""
    return STREAMS[workload](random.Random(f"{workload}:{seed}"), workdir)


def items(workload: str, seed, workdir: Path, count: int, copy: int = 0) -> list[Item]:
    """One copy of each of the first ``count`` templates."""
    return [t.copy(copy) for t in itertools.islice(stream(workload, seed, workdir), count)]
