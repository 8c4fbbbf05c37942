"""The ``tapkit`` command line: gen / apply / train / reach / td / analyze /
render / validate plus an end-to-end ``demo nao`` reaching pipeline.

Exit codes: 0 success, 1 usage error, 2 data or validation error. Errors are
single lines prefixed ``error:`` on stderr.

Seed discipline: every subcommand draws all randomness from its one ``--seed``
value. Multi-component commands (the demo) split it into named 64-bit
sub-seeds as ``SeedSequence(seed).generate_state(n, dtype=uint64)``, consumed
in documented order (demo: data, goals, reaching, baseline), so tests can
reproduce any stage in isolation.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from . import analysis, engine, models, render, rlbridge, sim, smcore, tapdsl
from .errors import TapkitError


def split_seed(seed: int, n: int) -> list[int]:
    """Named 64-bit sub-seeds derived from one root seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1 and
    accepts negative-number-led values like ``--goal -1,0.5`` or ``--box -1:1``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _plant_config(args) -> sim.PlantConfig:
    kind = {"linear": "linear", "arm": "arm", "planted": "planted_lag"}[args.plant]
    delay = args.delay if args.delay is not None else (3 if kind == "planted_lag" else 1)
    return sim.PlantConfig(
        kind=kind,
        dim=args.dim,
        noise_std=args.noise,
        delay=delay,
        seed=args.seed,
        command_low=args.box[0],
        command_high=args.box[1],
    )


def cmd_gen(args) -> int:
    config = _plant_config(args)
    matrix = sim.generate(config, args.episodes, args.steps)
    smcore.save_csv(matrix, args.out)
    space_path = _sidecar_space_path(args.out)
    with open(space_path, "w", encoding="utf-8") as fh:
        fh.write(tapdsl.to_text(matrix.space))
    total = sum(ep.data.shape[1] for ep in matrix.episodes)
    _say(args, f"wrote {args.out} ({len(matrix.episodes)} episode(s), "
               f"{total} steps, {matrix.space.n_sm} channels) and {space_path}")
    return 0


def _sidecar_space_path(out: str) -> str:
    return out[:-4] + ".tap" if out.endswith(".csv") else out + ".tap"


def _load_space_and_tappings(path):
    parsed = tapdsl.parse_file(path)
    if parsed.space is None:
        raise TapkitError(f"{path}: no space block found")
    return parsed


def _find_tapping(parsed, name: str, path) -> tapdsl.Tapping:
    for t in parsed.tappings:
        if t.name == name:
            return t
    known = ", ".join(t.name for t in parsed.tappings) or "none"
    raise TapkitError(f"{path}: no tapping named {name!r} (found: {known})")


def cmd_apply(args) -> int:
    parsed = _load_space_and_tappings(args.space)
    tapping = _find_tapping(parsed, args.tapping, args.space)
    matrix = smcore.load_csv(parsed.space, args.data)
    if args.blocking is not None:
        dataset = engine.apply_blocking(matrix, tapping, args.blocking, args.seed)
    else:
        dataset = engine.apply(matrix, tapping)
    engine.save_dataset_csv(dataset, args.out)
    _say(args, f"wrote {args.out}: {dataset.n} rows, d_in={dataset.d_in}, "
               f"d_out={dataset.d_out} (mask: {engine.mask_path_for(args.out)})")
    return 0


def cmd_train(args) -> int:
    dataset = engine.load_dataset_csv(args.data)
    model = models.fit(dataset, args.features, args.ridge)
    models.save_model(model, args.out)
    _say(args, f"wrote {args.out}: {model.d_out}x{model.d_feat} weights "
               f"({args.features} features), training rmse {models.rmse(model, dataset):.6g}")
    return 0


def cmd_reach(args) -> int:
    model = models.load_model(args.model)
    goal = _parse_floats(args.goal, "goal")
    result = models.best_of_n(model, goal, args.n, args.seed, *args.box)
    _say(args, "command:   " + " ".join(f"{v:.6g}" for v in result.command))
    _say(args, "predicted: " + " ".join(f"{v:.6g}" for v in result.predicted))
    _say(args, f"predicted distance to goal: {result.distance:.6g}")
    return 0


def cmd_td(args) -> int:
    env = rlbridge.ChainEnv(args.states, args.gamma)
    if args.algo == "td0":
        table = rlbridge.tapped_td_run(env, args.episodes, args.seed, args.alpha)
        direct = rlbridge.direct_td_run(env, args.episodes, args.seed, args.alpha)
        oracle = rlbridge.bellman_v(env)
        _say(args, "state values (tapping-mediated TD(0)):")
        _say(args, "  " + " ".join(f"{v:.6f}" for v in table.v))
        identical = bool(np.array_equal(table.v, direct.v))
        _say(args, f"dual path check (tapped == direct): {identical}")
        _say(args, "fixed-policy oracle values:")
        _say(args, "  " + " ".join(f"{v:.6f}" for v in oracle))
        _say(args, f"max |v - oracle|: {np.max(np.abs(table.v - oracle)):.6f}")
        return 0
    runner = rlbridge.q_learning_run if args.algo == "q" else rlbridge.sarsa_run
    table = runner(env, args.episodes, args.alpha, args.epsilon, args.seed)
    q_star, policy_star = rlbridge.value_iteration(env)
    _say(args, f"action values ({args.algo}):")
    for s in range(env.n_states):
        _say(args, f"  s={s}: left={table.q[s, 0]:.6f} right={table.q[s, 1]:.6f}")
    greedy = rlbridge.greedy_policy(table.q)
    _say(args, f"greedy policy:          {' '.join(str(a) for a in greedy)}")
    _say(args, f"value-iteration policy: {' '.join(str(a) for a in policy_star)}")
    _say(args, f"policies match: {bool(np.array_equal(greedy, policy_star))}")
    _say(args, f"max |q - q*|: {np.max(np.abs(table.q - q_star)):.6f}")
    return 0


def cmd_analyze(args) -> int:
    if args.space:
        space = _load_space_and_tappings(args.space).space
    else:
        space = smcore.infer_space_from_csv(args.data)
    matrix = smcore.load_csv(space, args.data)
    target = smcore.parse_channel_ref(args.target)
    refs = space.channel_refs()
    table = {ref: analysis.lag_scan(matrix, ref, target, args.max_lag, args.bins)
             for ref in refs}
    bins = table[refs[0]][0].bins
    _say(args, f"mutual information with {target} (bits, {bins} bins):")
    header = "lag    " + "".join(f"{str(r):>14}" for r in refs)
    _say(args, header)
    for i, lag in enumerate(range(0, -args.max_lag - 1, -1)):
        cells = "".join(f"{table[r][i].mi_bits:>14.4f}" for r in refs)
        _say(args, f"{lag:>4}   {cells}")
    best = max((res for results in table.values() for res in results
                if not (res.source == target and res.lag == 0)),
               key=lambda r: r.mi_bits)
    _say(args, f"strongest dependency: {best.source}@{best.lag} "
               f"({best.mi_bits:.4f} bits)")
    if args.emit_tapping:
        tapping = analysis.tapping_from_scans(
            space, target, list(table.values()), args.threshold)
        with open(args.emit_tapping, "w", encoding="utf-8") as fh:
            fh.write(tapdsl.to_text(space, [tapping]))
        _say(args, f"wrote {args.emit_tapping} ({len(tapping.taps) - 1} input taps)")
    return 0


def cmd_render(args) -> int:
    parsed = _load_space_and_tappings(args.spec)
    tapping = _find_tapping(parsed, args.tapping, args.spec)
    options = render.DiagramOptions(lag_window=(args.lag_min, args.lag_max),
                                    collapse_groups=not args.expand_channels)
    text = render.to_dot(tapping, options)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _say(args, f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_validate(args) -> int:
    parsed = tapdsl.parse_file(args.spec)
    if not parsed.tappings:
        _say(args, f"{args.spec}: no tappings")
        return 0
    for tapping in parsed.tappings:
        report = tapdsl.validate(tapping)
        _say(args, f"{tapping.name}: {report.kind} (span {tapping.span}, "
                   f"buffer delay {report.buffer_delay}, {len(tapping.taps)} taps)")
    return 0


def cmd_demo(args) -> int:
    report = demo_nao(seed=args.seed, steps=args.steps, goals=args.goals,
                      candidates=args.n)
    _say(args, report)
    return 0


def demo_nao(seed: int = 0, steps: int = 500, goals: int = 100,
             candidates: int = 256) -> str:
    """Explore a planar arm, fit a forward model, reach for goals with it.

    Pipeline: random exploration -> forward tapping -> quadratic least
    squares -> best-of-n reaching over sampled goals, against a
    one-random-command baseline computed in the same run. Fully determined
    by ``seed`` (sub-seeds: data, goals, reaching, baseline; see module
    docstring).
    """
    data_seed, goal_seed, reach_seed, baseline_seed = split_seed(seed, 4)
    config = sim.PlantConfig(kind="arm", seed=data_seed)
    matrix = sim.generate(config, 1, steps)
    tapping = tapdsl.forward(matrix.space, "m", "vision")
    dataset = engine.apply(matrix, tapping)
    model = models.fit(dataset, "quadratic", ridge=1e-6)
    fit_rmse = models.rmse(model, dataset)

    d_m = len(config.link_lengths)
    goal_rng = np.random.default_rng(np.random.SeedSequence(goal_seed))
    goal_cmds = goal_rng.uniform(config.command_low, config.command_high, (goals, d_m))
    goal_points = sim.arm_hand_position(config.link_lengths, goal_cmds)

    reach_rng = np.random.default_rng(np.random.SeedSequence(reach_seed))
    model_dists = []
    for goal in goal_points:
        sub_seed = int(reach_rng.integers(0, 2**63))
        result = models.best_of_n(model, goal, candidates, sub_seed,
                                  config.command_low, config.command_high)
        executed = sim.arm_hand_position(config.link_lengths, result.command)
        model_dists.append(float(np.linalg.norm(executed - goal)))

    base_rng = np.random.default_rng(np.random.SeedSequence(baseline_seed))
    base_cmds = base_rng.uniform(config.command_low, config.command_high, (goals, d_m))
    base_hands = sim.arm_hand_position(config.link_lengths, base_cmds)
    base_dists = [float(np.linalg.norm(d)) for d in base_hands - goal_points]

    med_model = float(np.median(model_dists))
    med_base = float(np.median(base_dists))
    lines = [
        f"nao reaching demo (seed={seed})",
        f"plant: planar arm, links {config.link_lengths}, "
        f"1 episode x {steps} steps",
        f"forward model trained on {dataset.n} training rows "
        f"(quadratic features, ridge {model.ridge:g})",
        f"fit rmse: {fit_rmse:.6f}",
        f"goals: {goals}, candidates per goal: {candidates}",
        f"model median goal distance:    {med_model:.6f}",
        f"baseline median goal distance: {med_base:.6f}",
        f"ratio (model / baseline): {med_model / med_base:.4f}",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise TapkitError(
            f"cannot parse {what} {text!r}; expected comma-separated numbers"
        ) from None


def _box(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI numbers, got {text!r}") from None
    return (lo, hi)


def build_parser() -> _ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational output")

    parser = _ArgumentParser(
        prog="tapkit",
        description="Declarative index maps from sensorimotor recordings "
                    "to supervised training sets.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_ArgumentParser)

    p = sub.add_parser("gen", parents=[common],
                       help="generate plant exploration data")
    p.add_argument("--plant", choices=("linear", "arm", "planted"), required=True)
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV (space sidecar: .tap)")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--dim", type=int, default=2, help="linear plant dimension")
    p.add_argument("--delay", "--lag", dest="delay", type=int, default=None,
                   help="command-to-effect delay (default 3 for planted, else 1)")
    p.add_argument("--box", type=_box, default=(-1.0, 1.0),
                   help="command box LO:HI")

    p = sub.add_parser("apply", parents=[common],
                       help="turn recorded data into a supervised dataset")
    p.add_argument("--space", required=True, help=".tap file with space and tappings")
    p.add_argument("--tapping", required=True, help="tapping name to apply")
    p.add_argument("--data", required=True, help="input data CSV")
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.add_argument("--blocking", type=float, default=None,
                   help="blocked tap proportion per episode")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", parents=[common],
                       help="fit a linear model on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--features", choices=models.FEATURE_MAPS, default="identity")
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output model file")

    p = sub.add_parser("reach", parents=[common],
                       help="pick the best command for a goal by sampling a model")
    p.add_argument("--model", required=True)
    p.add_argument("--goal", required=True, help="comma-separated goal point")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=_box, default=(-1.0, 1.0),
                   help="command box LO:HI")

    p = sub.add_parser("td", parents=[common],
                       help="temporal-difference learning on the chain env")
    p.add_argument("--states", type=int, default=5)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--episodes", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algo", choices=("td0", "sarsa", "q"), default="td0")
    p.add_argument("--epsilon", type=float, default=0.1)

    p = sub.add_parser("analyze", parents=[common],
                       help="lagged mutual-information scan of recorded data")
    p.add_argument("--data", required=True)
    p.add_argument("--space", default=None,
                   help=".tap space file (default: inferred from CSV header)")
    p.add_argument("--target", required=True, help="target channel, e.g. y[0]")
    p.add_argument("--max-lag", type=int, default=5)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--threshold", type=float, default=0.5,
                   help="keep taps with MI >= threshold * max MI")
    p.add_argument("--emit-tapping", default=None, help="write the recovered tapping here")

    p = sub.add_parser("render", parents=[common],
                       help="emit a tapping diagram as Graphviz DOT text")
    p.add_argument("--spec", required=True, help=".tap file")
    p.add_argument("--tapping", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--lag-min", type=int, default=None)
    p.add_argument("--lag-max", type=int, default=None)
    p.add_argument("--expand-channels", action="store_true",
                   help="one cell per channel instead of per group")

    p = sub.add_parser("validate", parents=[common],
                       help="parse a .tap file and report causality per tapping")
    p.add_argument("spec", help=".tap file")

    p = sub.add_parser("demo", parents=[common],
                       help="end-to-end demonstration pipelines")
    p.add_argument("what", choices=("nao",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--goals", type=int, default=100)
    p.add_argument("--n", type=int, default=256, help="candidates per goal")

    return parser


@functools.cache
def _parser() -> _ArgumentParser:
    """The parser :func:`main` uses, built once per process. Parsing leaves
    it unchanged and every default it holds is immutable, so no call sees
    another's arguments."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: missing subcommand", file=sys.stderr)
        return 1
    # Looked up on every call rather than kept in the cached parser, so a
    # cmd_* rebound after the first call (a tracer's wrapper) is the one run.
    return _exit_status(globals()[f"cmd_{args.command}"], args)


def _exit_status(func, *args):
    """Run ``func(*args)`` and return its result. A TapkitError or OSError
    is printed as one ``error:`` line on stderr and gives exit status 2.
    The command line and the experiment scripts exit through this."""
    try:
        return func(*args)
    except (TapkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
