"""The lib-warm workload: one process calling ttspec's library on warm fields.

    python3 perfbench/libwarm.py MODE SEED SECONDS OUT.json [SPANS.jsonl]

MODE is `setup` (time the set-up only), `run` (set up, then call blocks
of the seeded stream for SECONDS), `trace` (set up, then call the first
TRACE_BLOCKS blocks untraced and again with spans recorded) or `deck`
(call all DECK_BLOCKS blocks once, to store their digests).  The result
goes to OUT.json; `trace` also writes its spans to SPANS.jsonl.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time

# one call of each kind per block, in seeded order: no kind is weighted
# above another, since no usage data says how often each is called
KINDS = (
    "ff_mul", "ff_inverse", "ff_is_square", "ff_discrete_log",
    "qf_witt_class", "qf_is_isotropic", "mw_reduce_word", "mw_kmw_mul",
    "cm_compose", "cm_hom_group", "tt_ideal_closure", "tt_from_edges",
)
DECK_BLOCKS = 4000  # the stream repeats after this many blocks (~2100 in a 20 s run)
TRACE_BLOCKS = 160
# both classes of q mod 4, primes and prime powers; the log table of F_2187
# is the largest built in set-up.  Forms use the first four fields, where the
# exhaustive isotropy search stays under ~40 ms per call.
FIELDS = ((7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3), (31, 1), (127, 1), (3, 5), (3, 7))
FORM_FIELDS = FIELDS[:4]
# Form calls take their forms from one fixed catalog, the same for every
# seed: their cost ranges over 100x, and the slowest of them set op_tail_s,
# so a seeded catalog would move the tail from seed to seed.  Each form
# recurs about fifteen times in a 20 s run.
FORMS_PER_RANK = 24
SPACES = ("P1", "P2", "P3", "P1xP1", "P2xP1", "P2xP2", "P1xP1xP1")


class Stream:
    """Builds the seeded calls; everything here runs outside the timed calls."""

    def __init__(self, seed: int):
        t0 = time.perf_counter_ns()
        import ttspec  # noqa: F401  (timed as set-up)
        from ttspec import chow_motives, finite_field, milnor_witt, quadratic_forms, tt_geometry

        self.ff, self.qf, self.mw = finite_field, quadratic_forms, milnor_witt
        self.cm, self.tt = chow_motives, tt_geometry
        self.fields = []
        for p, e in FIELDS:
            field = finite_field.make_field(p, e)
            finite_field.discrete_log(finite_field.primitive_element(field))
            self.fields.append(field)
        self.setup_s = (time.perf_counter_ns() - t0) / 1e9
        self.seed = seed
        self._motives: dict = {}
        catalog = random.Random("lib-warm forms")
        self.forms = [
            quadratic_forms.diagonal(field, [self._unit(catalog, field) for _ in range(rank)])
            for field in self.fields[: len(FORM_FIELDS)]
            for rank in (2, 3, 4)
            for _ in range(FORMS_PER_RANK)
        ]

    def _space_data(self, label):
        """(space, identity, Kunneth projectors), built once per space."""
        if label not in self._motives:
            space = self.cm.parse_space(label)
            projectors = [m.projector for m, _ in self.cm.motive_decompose(space)]
            self._motives[label] = (space, self.cm.identity_correspondence(space), projectors)
        return self._motives[label]

    def block(self, index: int) -> list[tuple[str, object, object]]:
        """Block `index` of the stream: (kind, call, finish) triples.  `call`
        takes no argument and is the timed library call; `finish` turns its
        result into a comparable value after the clock has stopped."""
        rng = random.Random(f"lib-warm:{self.seed}:{index % DECK_BLOCKS}")
        kinds = list(KINDS)
        rng.shuffle(kinds)
        return [(kind, *getattr(self, kind)(rng)) for kind in kinds]

    def _unit(self, rng, field):
        return field.from_index(rng.randrange(1, field.q))

    # ------------------------------------------------------------ kinds

    def ff_mul(self, rng):
        field = rng.choice(self.fields)
        a, b = self._unit(rng, field), self._unit(rng, field)
        return (lambda: a * b), _value

    def ff_inverse(self, rng):
        a = self._unit(rng, rng.choice(self.fields))
        return (lambda: a.inverse()), _value

    def ff_is_square(self, rng):
        a = self._unit(rng, rng.choice(self.fields))
        return (lambda: self.ff.is_square(a)), _same

    def ff_discrete_log(self, rng):
        a = self._unit(rng, rng.choice(self.fields))
        return (lambda: self.ff.discrete_log(a)), _same

    def _form(self, rng):
        return rng.choice(self.forms)

    def qf_witt_class(self, rng):
        form = self._form(rng)
        return (lambda: self.qf.witt_class(form)), (
            lambda w: [a.value for a in w.anisotropic_kernel.entries])

    def qf_is_isotropic(self, rng):
        form = self._form(rng)
        return (lambda: self.qf.is_isotropic(form)), _same

    def _small_field(self, rng):
        return self.fields[rng.randrange(len(FORM_FIELDS))]

    def mw_reduce_word(self, rng):
        field = self._small_field(rng)
        terms = []
        for _ in range(rng.randint(1, 4)):
            entries = [self._unit(rng, field) for _ in range(rng.choice((0, 1, 1, 2)))]
            terms.append((rng.randint(-3, 3), rng.randint(0, 3), entries))
        word = self.mw.word(field, *terms)
        return (lambda: self.mw.reduce_word(word)), (
            lambda r: sorted((d, x.coords) for d, x in r.items()))

    def _kmw_element(self, rng, field):
        pick = rng.randrange(5)
        if pick == 0:
            return self.mw.kmw_one(field)
        if pick == 1:
            return self.mw.eta(field, rng.randint(1, 3))
        if pick == 2:
            return self.mw.omega_symbol(field)
        if pick == 3:
            return self.mw.symbol(self._unit(rng, field))
        return self.mw.hyperbolic_kmw(field)

    def mw_kmw_mul(self, rng):
        field = self._small_field(rng)
        x, y = self._kmw_element(rng, field), self._kmw_element(rng, field)
        return (lambda: self.mw.kmw_mul(x, y)), (lambda z: (z.degree, z.coords))

    def cm_compose(self, rng):
        _, identity, projectors = self._space_data(rng.choice(SPACES))
        beta = rng.choice(projectors + [identity])
        alpha = rng.choice(projectors + [identity])
        return (lambda: self.cm.compose(beta, alpha)), (lambda c: sorted(map(repr, c.cls.terms)))

    def cm_hom_group(self, rng):
        motives = []
        for _ in range(2):
            space, identity, _ = self._space_data(rng.choice(SPACES))
            motives.append(self.cm.Motive(space, identity, rng.randint(-1, 2)))
        m, n = motives
        return (lambda: self.cm.hom_group(m, n)), (
            lambda h: (h["rank"], h["ambient_codim"], [repr(b) for b in h["basis"]]))

    def tt_ideal_closure(self, rng):
        universe = self.tt.TateUniverse(rng.randint(0, 3), rng.randint(0, 3))
        lines = universe.lines()
        gens = [self.tt.tate_line(*rng.choice(lines)) for _ in range(rng.randint(1, 2))]
        return (lambda: self.tt.ideal_closure(gens, universe)), (lambda i: sorted(i.lines))

    def tt_from_edges(self, rng):
        n = rng.randint(4, 12)
        points = [f"x{i}" for i in range(n)]
        edges = [(points[i], points[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        return (lambda: self.tt.FiniteSpectralSpace.from_edges(points, edges)), (
            lambda space: sorted(space.specializes))


def _value(element):
    return element.value


def _same(result):
    return result


def run_blocks(stream: Stream, blocks, tracer=None) -> dict:
    """Call every op of the given blocks: per-call wall and CPU times (ns)
    and, per block, the number of calls, the calls that raised and the
    digest of all results.

    The CPU time is that of this thread while the call runs.  The calls do
    no I/O, so it equals their wall time on an idle machine; on a shared one
    it leaves out the 10-100 ms pauses when the host runs something else,
    which would otherwise decide the 11th-slowest call of a run."""
    out = {"wall_ns": [], "cpu_ns": [], "block_calls": [], "block_errors": [], "digests": []}
    wall, cpu = time.perf_counter_ns, time.thread_time_ns
    op = 0
    for index in blocks:
        calls = stream.block(index)
        h = hashlib.sha256()
        errors = 0
        for kind, call, finish in calls:
            if tracer is not None:
                tracer.begin_op(op)
            w0, c0 = wall(), cpu()
            try:
                result = call()
            except Exception as exc:  # a failing call is counted, not fatal
                result = exc
            c1, w1 = cpu(), wall()
            if tracer is not None:
                tracer.end_op()
            out["wall_ns"].append(w1 - w0)
            out["cpu_ns"].append(c1 - c0)
            if isinstance(result, Exception):
                text = f"error {type(result).__name__}: {result}"
                errors += 1
            else:
                text = repr(finish(result))
            h.update(f"{kind} {text}\n".encode())
            op += 1
        out["block_calls"].append(len(calls))
        out["block_errors"].append(errors)
        out["digests"].append(h.hexdigest()[:16])
    return out


def main(argv):
    mode, seed, seconds, out = argv[0], int(argv[1]), float(argv[2]), argv[3]
    stream = Stream(seed)
    result = {"setup_s": stream.setup_s}
    if mode == "run":
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < seconds:
            for key, values in run_blocks(stream, [index]).items():
                result.setdefault(key, []).extend(values)
            index += 1
    elif mode == "deck":
        result.update(run_blocks(stream, range(DECK_BLOCKS)))
    elif mode == "trace":
        from tracer import Tracer

        blocks = range(TRACE_BLOCKS)
        result.update(run_blocks(stream, blocks))
        tracer = Tracer()
        tracer.install()
        traced = run_blocks(stream, blocks, tracer)
        tracer.uninstall()
        result.update({"traced_" + k: v for k, v in traced.items()}, trace=tracer.summary())
        with open(argv[4], "w") as fh:
            for record in tracer.span_records():
                fh.write(json.dumps(record) + "\n")
    with open(out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
