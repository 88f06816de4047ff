"""The three workloads: seeded inputs and the closed-loop unit each one repeats.

A single caller issues each library call only after the previous one has
returned (closed loop, one process, one thread). Inputs come from the
benchmark's `--seed` only; the library receives the generated instances.

* price-large: one unit is one 12-advertiser x 4-ad auction, solved and
  then priced by Myerson, GSP and VCG.
* corpus-small: one unit is one `run_experiment` batch over the default
  corpus shape with all seven mechanisms, followed by direct solve and
  pricing calls on the batch's instances.
* dynamics: one unit is one instance (a shipped fixture or a random
  3-advertiser one): solved, priced, then `find_pure_nash` under GSP (1/2)
  and under the truthful Myerson mixture (2/3).
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks


@dataclass
class Session:
    """Times every library call, checks its output and keeps the samples."""

    lib: object
    out_dir: Path
    tracer: object = None
    before_call: object = None  # run untimed before each call, if set
    samples: dict = field(default_factory=lambda: defaultdict(list))  # op -> seconds
    unit_texts: dict = field(default_factory=lambda: defaultdict(list))  # op -> texts
    unit_failed: bool = False  # an op of the current unit already failed
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def run(self, op: str, call, check):
        """Time `call()`, then check its output with the tracer paused."""
        self.attempted += 1
        if self.before_call is not None:
            self.before_call()
        start = perf_counter()
        try:
            out = call()
        except Exception as exc:  # a raising call is a failed operation
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
            return None
        self.samples[op].append(perf_counter() - start)
        tracing = self.tracer is not None and self.tracer.active
        if tracing:
            self.tracer.active = False
        try:
            self.unit_texts[op].append(check(out))
        except Exception as exc:  # CheckFailed, or a malformed output
            self.fail(op, f"{type(exc).__name__}: {exc}")
        finally:
            if tracing:
                self.tracer.active = True
        return out

    def fail(self, op: str, message: str) -> None:
        self.failed += 1
        self.unit_failed = True
        if len(self.errors) < 20:
            self.errors.append(f"{op}: {message}")

    def end_unit(self, pinned: str | None = None) -> str:
        """Digest of every output in the unit just run; a mismatch with `pinned` fails it."""
        got = checks.digest(f"{op}: {text}" for op, texts in sorted(self.unit_texts.items()) for text in texts)
        if pinned is not None and not self.unit_failed and got != pinned:
            self.fail("unit", f"output digest {got} differs from pinned {pinned}")
        self.unit_texts.clear()
        self.unit_failed = False
        return got


def _solve(s: Session, inst, rep):
    lib = s.lib
    return s.run(
        "solve",
        lambda: lib.monotone.randomized_mechanism(inst, rep),
        lambda out: checks.solve(lib, inst, rep, lib.monotone.TRUTHFUL_MIX_P, out),
    )


def _myerson(s: Session, inst, rep, mixture) -> None:
    lib = s.lib
    s.run(
        "myerson",
        lambda: lib.pricing.myerson_payment(inst, rep, lib.pricing.mixture_rule()),
        lambda out: checks.priced(lib, inst, rep, out, mixture or lib.monotone.randomized_mechanism(inst, rep)),
    )


def _gsp(s: Session, inst, rep) -> None:
    lib = s.lib
    p = lib.monotone.GSP_MIX_P
    s.run(
        "gsp",
        lambda: lib.pricing.gsp_prices(inst, rep, lib.pricing.mixture_rule(p)),
        lambda out: checks.priced(lib, inst, rep, out, lib.monotone.randomized_mechanism(inst, rep, p)),
    )


def _vcg(s: Session, inst, rep) -> None:
    lib = s.lib
    s.run("vcg", lambda: lib.pricing.vcg_payments(inst, rep), lambda out: checks.vcg(lib, inst, rep, out))


def _solve_and_price(s: Session, inst, rep) -> None:
    mixture = _solve(s, inst, rep)
    _myerson(s, inst, rep, mixture)
    _gsp(s, inst, rep)
    _vcg(s, inst, rep)


def _validated(lib, inst):
    violations = lib.model.validate_instance(inst)
    if violations:
        raise ValueError(f"generated instance is invalid: {violations[0].message}")
    return inst


# --- price-large ----------------------------------------------------------------

PRICE_ADVERTISERS = 12
PRICE_ADS = 4
PRICE_MAX_SPACE = 30
PRICE_TOTAL_SPACE = 150
PRICE_POOL = 48
# a payment takes about 1000 times as long as a solve, so each unit makes the
# cheap solve and VCG calls PRICE_REPEATS times, spread in three groups
# around the two payments: they then sample the machine at three moments of
# the unit instead of one
PRICE_REPEATS = 9


def _price_instance_json(rng: random.Random) -> str:
    advertisers = []
    for a in range(1, PRICE_ADVERTISERS + 1):
        adv_id = f"a{a:02d}"
        ads = [
            {"id": f"{adv_id}x{j}", "alpha": f"{rng.randint(1, 8)}/8", "space": str(rng.randint(1, PRICE_MAX_SPACE))}
            for j in range(1, PRICE_ADS + 1)
        ]
        advertisers.append({"id": adv_id, "value_per_click": f"{rng.randint(1, 100)}/10", "ads": ads})
    return json.dumps({"total_space": str(PRICE_TOTAL_SPACE), "cardinality_limit": None, "advertisers": advertisers})


def _price_build(lib, seed: int) -> list:
    rng = random.Random(f"price-large/{seed}")
    items = []
    for _ in range(PRICE_POOL):
        inst = _validated(lib, lib.model.instance_from_dict(json.loads(_price_instance_json(rng))))
        items.append((inst, lib.model.truthful_profile(inst)))
    return items


def _price_unit(s: Session, item) -> None:
    inst, rep = item

    def cheap_calls():
        for _ in range(PRICE_REPEATS // 3):
            mixture = _solve(s, inst, rep)
            _vcg(s, inst, rep)
        return mixture

    _myerson(s, inst, rep, cheap_calls())
    cheap_calls()
    _gsp(s, inst, rep)
    cheap_calls()


# --- corpus-small ---------------------------------------------------------------

CORPUS_BATCH = 25
CORPUS_POOL = 64


def _corpus_build(lib, seed: int) -> list:
    rng = random.Random(f"corpus-small/{seed}")
    mechanisms = tuple(lib.harness.MECHANISM_NAMES)
    items = []
    for _ in range(CORPUS_POOL):
        cfg = lib.harness.ExperimentConfig(
            seed=rng.randrange(2**31), instances=CORPUS_BATCH, mechanisms=mechanisms
        )
        corpus = [_validated(lib, inst) for inst in lib.harness.generate_corpus(cfg)]
        items.append((cfg, [(inst, lib.model.truthful_profile(inst)) for inst in corpus]))
    return items


def _corpus_unit(s: Session, item) -> None:
    cfg, instances = item
    lib = s.lib
    s.run(
        "experiment",
        lambda: lib.harness.run_experiment(cfg, s.out_dir),
        lambda out: checks.experiment(lib, cfg, out, s.out_dir),
    )
    for inst, rep in instances:
        _solve_and_price(s, inst, rep)


# --- dynamics -------------------------------------------------------------------

DYNAMICS_FIXTURES = ("fx1", "fx2i", "fx4", "fx6a")
FIXTURE_GRID = Fraction(1, 20)
RANDOM_GRID = Fraction(1, 4)
DYNAMICS_RANDOM = 600


def _dynamics_build(lib, seed: int) -> list:
    rng = random.Random(f"dynamics/{seed}")
    games = [(_validated(lib, lib.fixtures.fixture(name)), FIXTURE_GRID) for name in DYNAMICS_FIXTURES]
    # the acceptance corpus shape on which best responses converge
    cfg = lib.harness.ExperimentConfig(
        seed=rng.randrange(2**31), instances=DYNAMICS_RANDOM,
        max_advertisers=3, max_ads=2, max_space=8, max_total_space=16,
    )
    games += [(_validated(lib, inst), RANDOM_GRID) for inst in lib.harness.generate_corpus(cfg)]
    return [
        (inst, lib.model.truthful_profile(inst), lib.equilibrium.strategy_spaces(inst, grid))
        for inst, grid in games
    ]


def _dynamics_unit(s: Session, item) -> None:
    inst, truth, spaces = item
    lib = s.lib
    _solve_and_price(s, inst, truth)
    for op, kind, mechanism in (
        ("nash-gsp", "gsp", lib.equilibrium.gsp_mixture_mechanism()),
        ("nash-myerson", "myerson", lib.equilibrium.myerson_mixture_mechanism()),
    ):
        s.run(
            op,
            lambda: lib.equilibrium.find_pure_nash(inst, truth, mechanism, spaces),
            lambda out: checks.nash(lib, inst, truth, kind, out),
        )


def warm_up(lib, out_dir: Path) -> Session:
    """Run every code path once on tiny inputs before measuring; checked, not timed."""
    s = Session(lib, out_dir)
    for name in ("fx1", "fx4"):
        inst = lib.fixtures.fixture(name)
        _dynamics_unit(s, (inst, lib.model.truthful_profile(inst), lib.equilibrium.strategy_spaces(inst, FIXTURE_GRID)))
    cfg = lib.harness.ExperimentConfig(instances=2, mechanisms=tuple(lib.harness.MECHANISM_NAMES))
    s.run("experiment", lambda: lib.harness.run_experiment(cfg, out_dir), lambda out: checks.experiment(lib, cfg, out, out_dir))
    s.end_unit()
    return s


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (lib, seed) -> list of unit inputs
    unit: object  # (session, input) -> None
    throughput_ops: dict  # op -> share of its calls' time one run of `unit` costs
    per_unit: int  # throughput units one run of `unit` completes
    traced_units: int  # units in the traced prefix


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "price-large",
            "12 advertisers x 4 ads: long click curves, one full view per probe, so pricing and views dominate",
            _price_build, _price_unit,
            {"solve": 1 / PRICE_REPEATS, "myerson": 1, "gsp": 1, "vcg": 1 / PRICE_REPEATS}, 1, 3,
        ),
        Workload(
            "corpus-small",
            "run_experiment over the default small corpus, all seven mechanisms: many one-shot calls on short curves",
            _corpus_build, _corpus_unit, {"experiment": 1}, CORPUS_BATCH, 3,
        ),
        Workload(
            "dynamics",
            "find_pure_nash on fixtures and random 3-advertiser games: pricing reached through memo caches",
            _dynamics_build, _dynamics_unit, {"nash-gsp": 1, "nash-myerson": 1}, 2, 12,
        ),
    )
}
