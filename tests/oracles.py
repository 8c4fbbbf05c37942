"""Independent oracles and random-case generators for the test suite.

Everything here recomputes expectations from first principles (per-cell
bounds checks, explicit kinematics loops, exact linear solves) so the code
under test is never checked against itself.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import replace
from itertools import islice

import numpy as np

from tapkit.engine import apply
from tapkit.errors import TapkitError
from tapkit.models import fit, rmse
from tapkit.rlbridge import ACTIONS, RIGHT, ValueTable
from tapkit.sim import PlantConfig, arm_hand_position, generate, plant_matrix, space_for
from tapkit.smcore import Episode, SensorimotorMatrix, define_space
from tapkit.tapdsl import ROLE_INPUT, ROLE_TARGET, Tap, Tapping, forward, tap_channels


def brute_force_apply(matrix, tapping):
    """Enumerate every candidate anchor and keep those where every tapped
    cell is in bounds. Returns (anchors, X rows, Y rows) as plain lists.

    Deliberately ignores the span/row-count shortcut: each cell is bounds
    checked individually over a generous anchor range.
    """
    space = matrix.space
    cells = []  # (row, lag, role) per expanded channel, declaration order
    for tap in tapping.taps:
        for ch in tap_channels(space, tap):
            cells.append((space.resolve(tap.group, ch), tap.lag, tap.role))
    lags = [lag for _, lag, _ in cells]
    reach = max(abs(l) for l in lags) + 1
    anchors, xs, ys = [], [], []
    for ep in matrix.episodes:
        T = ep.data.shape[1]
        for t in range(-reach, T + reach + 1):
            if all(0 <= t + lag <= T - 1 for _, lag, _ in cells):
                anchors.append((ep.id, t))
                xs.append([ep.data[row, t + lag]
                           for row, lag, role in cells if role == ROLE_INPUT])
                ys.append([ep.data[row, t + lag]
                           for row, lag, role in cells if role == ROLE_TARGET])
    return anchors, xs, ys


def row_count_law(matrix, tapping) -> int:
    """N = sum over episodes of max(0, T_e - W + 1)."""
    W = tapping.span
    return sum(max(0, ep.data.shape[1] - W + 1) for ep in matrix.episodes)


def fk_oracle(link_lengths, angles):
    """Planar forward kinematics written as an explicit accumulation loop,
    independent of the vectorized implementation under test."""
    x = y = 0.0
    heading = 0.0
    for length, angle in zip(link_lengths, angles):
        heading += angle
        x += length * math.cos(heading)
        y += length * math.sin(heading)
    return np.array([x, y])


def exact_discrete_mi_bits(x, y) -> float:
    """Exact MI for small discrete-valued series via direct frequency counts."""
    pairs = {}
    px = {}
    py = {}
    n = len(x)
    for a, b in zip(x, y):
        pairs[(a, b)] = pairs.get((a, b), 0) + 1
        px[a] = px.get(a, 0) + 1
        py[b] = py.get(b, 0) + 1
    mi = 0.0
    for (a, b), c in pairs.items():
        p_ab = c / n
        mi += p_ab * math.log2(p_ab / ((px[a] / n) * (py[b] / n)))
    return mi


def reference_pooled_pairs(matrix, src_row, tgt_row, lag):
    """Every in-bounds (source[t + lag], target[t]) pair, episode by episode
    and t by t, as two lists."""
    xs, ys = [], []
    for ep in matrix.episodes:
        for t in range(ep.data.shape[1]):
            if t + lag >= 0:
                xs.append(float(ep.data[src_row, t + lag]))
                ys.append(float(ep.data[tgt_row, t]))
    return xs, ys


def quadratic_loss(W, b, X, Y, phi, ridge) -> float:
    """The objective fit() claims to minimize, written out longhand."""
    total = ridge * float(np.sum(W * W))
    for x, y in zip(X, Y):
        r = y - (W @ phi(x) + b)
        total += float(r @ r)
    return total


def reference_lms_step(W, b, feature_map, x, y, rate):
    """One LMS step as per-element loops over ``W`` and ``b``; returns the new
    ``(W, b)``. The quadratic terms are x_i * x_j for i <= j, row-major. The
    prediction stays one ``W @ phi + b`` product: BLAS sums it in its own
    order, and a Python loop differs from that in the last bit."""
    x = [float(v) for v in x]
    phi = list(x)
    if feature_map == "quadratic":
        phi += [x[i] * x[j] for i in range(len(x)) for j in range(i, len(x))]
    pred = (W @ np.array(phi) + b).tolist()
    W_new, b_new = W.copy(), b.copy()
    for i in range(W.shape[0]):
        err = float(y[i]) - pred[i]
        for j in range(W.shape[1]):
            W_new[i, j] = W[i, j] + rate * (err * phi[j])
        b_new[i] = b[i] + rate * err
    return W_new, b_new


def _reference_pairwise_sum(values):
    """NumPy's sum of one contiguous or strided run: plain below 8 values,
    eight interleaved partial sums up to 128, else split in two halves whose
    cut is a multiple of 8."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _reference_pairwise_sum(values[:half]) + _reference_pairwise_sum(values[half:])
    r = values[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r = [s + v for s, v in zip(r, values[i:i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[end:]:
        total += v
    return total


def _reference_column_sums(rows):
    """The sums NumPy gives for axis 0 of a row-major ``(n, k)`` array: from
    0.0, the rows added in order; a single column is one run, which NumPy
    sums pairwise."""
    if len(rows[0]) == 1:
        return [0.0 + _reference_pairwise_sum([row[0] for row in rows])]
    sums = [0.0] * len(rows[0])
    for row in rows:
        sums = [s + v for s, v in zip(sums, row)]
    return sums


def reference_fit(X, Y, feature_map, ridge):
    """The ridge normal equations built entry by entry; returns ``(W, b)``.

    ``X`` and ``Y`` are row-major (C order or column slices of it). The
    features are written out per row, and the bias row and column of the
    Gram matrix and the bias row of the right-hand side are written-out
    column sums. The Gram and cross blocks stay the ``phi.T @ phi`` and
    ``phi.T @ Y`` products: BLAS sums them in its own order, as in
    :func:`reference_lms_step`, and picks that order from the operands'
    layout, so the identity map's products take ``X`` itself. Raises
    TapkitError where ``fit`` must refuse: a non-finite system, or a
    rank-deficient one at ridge 0.
    """
    rows = []
    for x in X.tolist():
        if feature_map == "quadratic":
            x += [x[i] * x[j] for i in range(len(x)) for j in range(i, len(x))]
        rows.append(x)
    phi = X if feature_map == "identity" else np.array(rows)
    n, df = phi.shape
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        gram, cross = phi.T @ phi, phi.T @ Y
    phi_sum, y_sum = _reference_column_sums(rows), _reference_column_sums(Y.tolist())
    G = np.empty((df + 1, df + 1))
    rhs = np.empty((df + 1, Y.shape[1]))
    for i in range(df):
        for j in range(df):
            G[i, j] = gram[i, j] + (ridge if i == j else 0.0)
        G[i, df] = G[df, i] = phi_sum[i]
        rhs[i] = cross[i]
    G[df, df] = n
    rhs[df] = y_sum
    if not (np.isfinite(G).all() and np.isfinite(rhs).all()):
        raise TapkitError("non-finite normal equations")
    if ridge == 0.0 and np.linalg.matrix_rank(G) < df + 1:
        raise TapkitError("singular normal equations")
    try:
        theta = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        raise TapkitError("singular normal equations") from None
    return theta[:df].T, theta[df]


def reference_best_of_n(model, goal, n, seed, low, high):
    """best_of_n written out; returns ``(command, predicted, distance)``.

    The candidates are the documented draws ``low + (high - low) * U``, one
    ``U`` per cell from ``Generator.random`` in row-major order, for scalar
    and per-channel bounds alike. The features are written out per row and
    the distances are per-row Euclidean norms, summed as NumPy sums a row.
    The lowest index wins a tie. The predictions stay one ``phi @ W.T + b``
    product: BLAS sums it in its own order, and a product per row differs
    from that in the last bit.
    """
    d = model.d_in
    lo = np.broadcast_to(np.asarray(low, dtype=float), (d,)).tolist()
    hi = np.broadcast_to(np.asarray(high, dtype=float), (d,)).tolist()
    U = np.random.default_rng(np.random.SeedSequence(seed)).random((n, d)).tolist()
    candidates = [[lo[j] + (hi[j] - lo[j]) * u[j] for j in range(d)] for u in U]
    rows = []
    for x in candidates:
        if model.feature_map == "quadratic":
            x = x + [x[i] * x[j] for i in range(d) for j in range(i, d)]
        rows.append(x)
    preds = (np.array(rows) @ model.W.T + model.b).tolist()
    best, best_dist = 0, math.inf
    for i, p in enumerate(preds):
        dist = math.sqrt(_reference_pairwise_sum([(v - g) * (v - g) for v, g in zip(p, goal)]))
        if dist < best_dist:
            best, best_dist = i, dist
    return np.array(candidates[best]), np.array(preds[best]), best_dist


def reference_demo_nao(seed=0, steps=500, goals=100, candidates=256):
    """``demo nao``'s report with the reaching written as a per-goal loop:
    for each goal in turn, one scalar sub-seed draw, one
    :func:`reference_best_of_n`, one hand position of the chosen command and
    one norm. Exploration, fit and baseline are the library's, as the demo
    documents them."""
    data_seed, goal_seed, reach_seed, baseline_seed = (
        np.random.SeedSequence(seed).generate_state(4, dtype=np.uint64).tolist())
    config = PlantConfig(kind="arm", seed=data_seed)
    matrix = generate(config, 1, steps)
    dataset = apply(matrix, forward(matrix.space, "m", "vision"))
    model = fit(dataset, "quadratic", ridge=1e-6)
    low, high, links = config.command_low, config.command_high, config.link_lengths
    goal_rng = np.random.default_rng(np.random.SeedSequence(goal_seed))
    goal_points = arm_hand_position(links, goal_rng.uniform(low, high, (goals, len(links))))
    reach_rng = np.random.default_rng(np.random.SeedSequence(reach_seed))
    model_dists = []
    for goal in goal_points:
        sub_seed = int(reach_rng.integers(0, 2**63))
        command, _, _ = reference_best_of_n(model, goal.tolist(), candidates, sub_seed, low, high)
        model_dists.append(float(np.linalg.norm(arm_hand_position(links, command) - goal)))
    base_rng = np.random.default_rng(np.random.SeedSequence(baseline_seed))
    base_hands = arm_hand_position(links, base_rng.uniform(low, high, (goals, len(links))))
    base_dists = [float(np.linalg.norm(d)) for d in base_hands - goal_points]
    med_model, med_base = float(np.median(model_dists)), float(np.median(base_dists))
    return "\n".join([
        f"nao reaching demo (seed={seed})",
        f"plant: planar arm, links {links}, 1 episode x {steps} steps",
        f"forward model trained on {dataset.n} training rows "
        f"(quadratic features, ridge {model.ridge:g})",
        f"fit rmse: {rmse(model, dataset):.6f}",
        f"goals: {goals}, candidates per goal: {candidates}",
        f"model median goal distance:    {med_model:.6f}",
        f"baseline median goal distance: {med_base:.6f}",
        f"ratio (model / baseline): {med_model / med_base:.4f}",
    ])


def reference_position(text, offset):
    """1-based (line, column) of ``offset`` in ``text``: the line is the number
    of pieces ``text[:offset]`` splits into on newlines, and the column is one
    past the length of the last piece."""
    pieces = text[:offset].split("\n")
    return len(pieces), len(pieces[-1]) + 1


# ---------------------------------------------------------------------------
# Random case generation (plain numpy RNG so case counts are exact)
# ---------------------------------------------------------------------------

KIND_CYCLE = ("motor", "proprio", "extero", "intero")


def random_space(rng):
    n_groups = int(rng.integers(1, 4))
    spec = [
        (KIND_CYCLE[i % 4], f"g{i}", int(rng.integers(1, 4)))
        for i in range(n_groups)
    ]
    return define_space(spec, name="fuzz")


def random_tapping(rng, space, max_abs_lag=4):
    """A valid random tapping: distinct coordinates, both roles present."""
    groups = [g.name for g in space.groups]
    while True:
        n_taps = int(rng.integers(2, 7))
        taps = []
        used = set()
        for i in range(n_taps):
            g = groups[int(rng.integers(0, len(groups)))]
            dim = space.group(g).dim
            lag = int(rng.integers(-max_abs_lag, max_abs_lag + 1))
            role = ROLE_INPUT if rng.random() < 0.5 else ROLE_TARGET
            if rng.random() < 0.3 and dim > 1:
                k = int(rng.integers(1, dim + 1))
                channels = tuple(sorted(rng.choice(dim, size=k, replace=False).tolist()))
            else:
                channels = None
            chans = channels if channels is not None else tuple(range(dim))
            keys = {(g, c, lag, role) for c in chans}
            if keys & used:
                continue
            used |= keys
            taps.append(Tap(g, lag, role, channels))
        roles = {t.role for t in taps}
        if roles == {ROLE_INPUT, ROLE_TARGET}:
            return Tapping("fuzz_tap", space, tuple(taps))


def random_matrix(rng, space, max_episodes=3, max_T=30):
    n_eps = int(rng.integers(0, max_episodes + 1))
    eps = []
    eid = 0
    for _ in range(n_eps):
        eid += int(rng.integers(1, 3))
        T = int(rng.integers(1, max_T + 1))
        eps.append(Episode(eid, rng.uniform(-1, 1, (space.n_sm, T))))
    return SensorimotorMatrix(space, eps)


# Floats a text round-trip can get wrong: signed zero, subnormals, the extremes.
EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 1e-310, -1e-310,
               1.7976931348623157e308, -1.7976931348623157e308)


def edge_values(rng, shape):
    """Standard normals with about half the cells replaced by EDGE_FLOATS."""
    values = rng.standard_normal(shape)
    planted = rng.random(shape) < 0.5
    values[planted] = rng.choice(EDGE_FLOATS, size=int(planted.sum()))
    return values


# ---------------------------------------------------------------------------
# Reference append: the whole episode copied on every call
# ---------------------------------------------------------------------------

def reference_append(episodes, n_sm, episode_id, sm_vector):
    """Append one measurement column by rebuilding the episode with
    ``np.hstack``, the quadratic storage ``append_measurement`` replaced.

    ``episodes`` is a list of ``[id, data]`` pairs, changed in place. Raises
    TapkitError for a wrong length, a non-finite value or a closed episode,
    and then changes nothing.
    """
    vec = np.asarray(sm_vector, dtype=float).reshape(-1)
    if vec.shape[0] != n_sm:
        raise TapkitError(f"measurement has {vec.shape[0]} values, space needs {n_sm}")
    if not np.isfinite(vec).all():
        raise TapkitError("measurement has a non-finite value")
    if episodes:
        last = episodes[-1]
        if episode_id == last[0]:
            last[1] = np.hstack([last[1], vec[:, None]])
            return
        if episode_id < last[0]:
            raise TapkitError(f"episode {episode_id} is closed (episode {last[0]} already started)")
    episodes.append([episode_id, vec[:, None].copy()])


# ---------------------------------------------------------------------------
# Reference mask stages: one cell and one column at a time
# ---------------------------------------------------------------------------

def reference_dropout(dataset, config):
    """Dropout augmentation masking one chosen cell at a time. Returns
    (X, Y, x_mask, y_mask, anchors).

    Copy i draws ``rng.choice(total, k, replace=False)`` from
    ``default_rng(SeedSequence(seed).spawn(copies)[i])``; scope cells are
    numbered row-major, X block before Y block for scope "both".
    """
    n, d_in, d_out = dataset.n, dataset.d_in, dataset.d_out
    reps = config.copies + 1
    X = np.tile(dataset.X, (reps, 1))
    Y = np.tile(dataset.Y, (reps, 1))
    x_mask = np.tile(dataset.x_mask, (reps, 1))
    y_mask = np.tile(dataset.y_mask, (reps, 1))
    children = np.random.SeedSequence(config.seed).spawn(config.copies)
    x_cells, y_cells = n * d_in, n * d_out
    total = {"inputs": x_cells, "targets": y_cells, "both": x_cells + y_cells}[config.scope]
    k = int(np.floor(config.proportion * total))
    for i in range(config.copies):
        rng = np.random.default_rng(children[i])
        chosen = rng.choice(total, size=k, replace=False)
        base = (i + 1) * n
        for cell in chosen:
            if config.scope == "targets":
                cell += x_cells
            if cell < x_cells:
                r, c = divmod(int(cell), d_in)
                X[base + r, c] = config.inactive_value
                x_mask[base + r, c] = False
            else:
                r, c = divmod(int(cell) - x_cells, d_out)
                Y[base + r, c] = config.inactive_value
                y_mask[base + r, c] = False
    return X, Y, x_mask, y_mask, list(dataset.anchors) * reps


def reference_blocking(matrix, tapping, proportion, seed=0):
    """Tap blocking built episode by episode and column by column. Returns
    (X, Y, x_mask, y_mask, anchors).

    Episode i draws ``rng.choice(#taps, k, replace=False)`` from
    ``default_rng(SeedSequence(seed).spawn(n_episodes)[i])``, also when it
    is too short to yield rows; each blocked tap's columns read 0 and are
    inactive for that whole episode. A proportion above 0 that blocks no tap
    raises ``TapkitError``.
    """
    space = matrix.space
    cols = {ROLE_INPUT: [], ROLE_TARGET: []}  # (matrix row, lag) per column
    spans = []  # (role, first column, end column) per tap
    for tap in tapping.taps:
        block = cols[tap.role]
        start = len(block)
        block += [(space.resolve(tap.group, ch), tap.lag) for ch in tap_channels(space, tap)]
        spans.append((tap.role, start, len(block)))
    k = int(np.floor(proportion * len(tapping.taps)))
    if proportion > 0 and k == 0:
        raise TapkitError(f"proportion {proportion} blocks no tap of {len(tapping.taps)}: "
                          f"floor({proportion} * {len(tapping.taps)}) = 0")
    children = np.random.SeedSequence(seed).spawn(len(matrix.episodes))
    out = {ROLE_INPUT: ([], []), ROLE_TARGET: ([], [])}  # role -> (values, masks)
    anchors = []
    for i, ep in enumerate(matrix.episodes):
        ts = range(-tapping.min_lag, ep.data.shape[1] - tapping.max_lag)
        values, masks = {}, {}
        for role, block in cols.items():
            values[role] = np.empty((len(ts), len(block)))
            for j, (row, lag) in enumerate(block):
                for r, t in enumerate(ts):
                    values[role][r, j] = ep.data[row, t + lag]
            masks[role] = np.ones(values[role].shape, dtype=bool)
        rng = np.random.default_rng(children[i])
        for tap_idx in rng.choice(len(tapping.taps), size=k, replace=False):
            role, start, stop = spans[int(tap_idx)]
            values[role][:, start:stop] = 0.0
            masks[role][:, start:stop] = False
        for role in cols:
            out[role][0].append(values[role])
            out[role][1].append(masks[role])
        anchors += [(ep.id, t) for t in ts]

    def stack(parts, width, dtype):
        return np.vstack(parts) if parts else np.zeros((0, width), dtype=dtype)

    d_in, d_out = len(cols[ROLE_INPUT]), len(cols[ROLE_TARGET])
    return (stack(out[ROLE_INPUT][0], d_in, float), stack(out[ROLE_TARGET][0], d_out, float),
            stack(out[ROLE_INPUT][1], d_in, bool), stack(out[ROLE_TARGET][1], d_out, bool),
            anchors)


# ---------------------------------------------------------------------------
# Reference generator: one step and one response at a time
# ---------------------------------------------------------------------------

def _reference_respond(config, A, command):
    """One step's response, with the per-command forward kinematics."""
    if config.kind == "linear":
        return A @ command
    if config.kind == "arm":
        absolute = np.cumsum(np.asarray(command, dtype=float))
        ls = np.asarray(config.link_lengths, dtype=float)
        return np.array([np.sum(ls * np.cos(absolute)), np.sum(ls * np.sin(absolute))])
    return np.tanh(command)


def reference_generate(config, episodes, steps_per_episode):
    """``sim.generate`` computed one step at a time.

    Same seeding (child 0 for plant parameters, child 1 + e for episode e;
    commands drawn before noise); the observation at t answers the command
    at t - delay, or a zero command before that.
    """
    space = space_for(config)
    d_m = space.groups[0].dim
    d_s = space.groups[1].dim
    children = np.random.SeedSequence(config.seed).spawn(1 + episodes)
    A = plant_matrix(config) if config.kind == "linear" else None
    eps = []
    for e in range(episodes):
        rng = np.random.default_rng(children[1 + e])
        cmds = rng.uniform(config.command_low, config.command_high,
                           (steps_per_episode, d_m))
        noise = rng.normal(0.0, config.noise_std, (steps_per_episode, d_s))
        data = np.empty((space.n_sm, steps_per_episode))
        zero = np.zeros(d_m)
        for t in range(steps_per_episode):
            cmd_then = cmds[t - config.delay] if t >= config.delay else zero
            data[:d_m, t] = cmds[t]
            data[d_m:, t] = _reference_respond(config, A, cmd_then) + noise[t]
        eps.append(Episode(e, data))
    return SensorimotorMatrix(space, eps)


# ---------------------------------------------------------------------------
# Reference table reader: the csv row loop, one int or float call per cell
# ---------------------------------------------------------------------------

_KEY_NAMES = ("episode id", "t")
_BITS = frozenset("01")


def reference_read_table(path, n_keys, check_header, mask=False):
    """The ``csv.reader`` row loop ``csvtext.read`` had before its body
    was parsed in bulk (by NumPy's C reader, then by a NumPy kernel). It lets
    an episode id or ``t`` past int64 escape as ``OverflowError``; everything
    else it returns or refuses is what ``csvtext.read`` must return or refuse,
    message for message. A row is named by the line it starts on."""
    keys = array("q")
    cells = array("B" if mask else "d")
    parse = int if mask else float
    with open(path, encoding="utf-8", newline="") as fh:
        rows = reference_rows(fh)
        _, header = next(rows, (1, None))
        checked = check_header(header)
        width = len(header)
        d = width - n_keys
        for lineno, row in rows:
            if not row:
                continue
            if len(row) != width or mask and not _BITS.issuperset(row[n_keys:]):
                expected = f"{d} mask cells of 0 or 1" if mask else f"{width} fields"
                raise TapkitError(f"{path}: line {lineno}: expected {expected}")
            try:
                keys.extend(map(int, row[:n_keys]))
                cells.extend(map(parse, row[n_keys:]))
            except ValueError:
                for j, text in enumerate(row):
                    try:
                        (int if j < n_keys else float)(text)
                    except ValueError:
                        what = f"non-integer {_KEY_NAMES[j]}" if j < n_keys else "non-numeric value"
                        raise TapkitError(f"{path}: line {lineno}: {what} {text!r}") from None
    keys = np.frombuffer(keys, dtype=np.int64).reshape(-1, n_keys)
    cells = np.frombuffer(cells, dtype=bool if mask else float).reshape(-1, d)
    if not mask and not np.isfinite(cells).all():
        i, j = divmod(int(np.argmin(np.isfinite(cells))), d)
        lineno, row = _reference_find_row(path, i)
        where = "" if n_keys == 1 else " in the row of episode %d, t %d:" % tuple(keys[i])
        raise TapkitError(f"{path}: line {lineno}: non-finite value{where} {row[n_keys + j]!r}")
    return checked, keys, cells


def reference_rows(fh):
    """Each ``csv`` row of ``fh`` with the line it starts on, from 1: a
    quoted field may span lines."""
    reader, lineno = csv.reader(fh), 1
    for row in reader:
        yield lineno, row
        lineno = reader.line_num + 1


def _reference_find_row(path, i):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = ((lineno, row) for lineno, row in reference_rows(fh) if row)
        return next(islice(rows, i + 1, None))


# ---------------------------------------------------------------------------
# Reference table writer: one ``%`` call per row
# ---------------------------------------------------------------------------

def reference_write_table(path, header, blocks):
    """The per-row loop ``csvtext.write`` had before it formatted a
    chunk of rows per ``%`` call: each row is its keys as ``%d``, then its
    cells as ``%.17g`` (``%d`` for bools), joined by commas, ending in CRLF.
    ``csvtext.write`` must write the same bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for keys, cells in blocks:
            cell = "%d" if cells.dtype == bool else "%.17g"
            line = ",".join(["%d"] * keys.shape[1] + [cell] * cells.shape[1]) + "\r\n"
            for k, c in zip(keys.tolist(), cells.tolist()):
                fh.write(line % tuple(k + c))


# ---------------------------------------------------------------------------
# Reference mutual information: the joint histogram from np.histogram2d
# ---------------------------------------------------------------------------

def _reference_entropy_bits(p):
    q = p[p > 0]
    terms = q * np.log2(q)
    terms.sort()
    return float(-terms.sum())


def reference_mutual_information(x, y, bins):
    """``analysis.mutual_information`` as it was before it counted with
    ``np.bincount``: the joint counts come from ``np.histogram2d``. For
    finite samples with finite ranges the two must agree bit for bit."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.min() == x.max() or y.min() == y.max():
        return 0.0
    counts, _, _ = np.histogram2d(x, y, bins=bins)
    p = counts / counts.sum()
    h_x = _reference_entropy_bits(p.sum(axis=1))
    h_y = _reference_entropy_bits(p.sum(axis=0))
    h_xy = _reference_entropy_bits(p.ravel())
    return max(0.0, h_x + h_y - h_xy)


# ---------------------------------------------------------------------------
# Reference TD rules: each update body and runner loop written out in full
# ---------------------------------------------------------------------------

REFERENCE_MAX_STEPS = 10_000  # rlbridge.MAX_STEPS; the law test may lower both


def _reference_check_index(table, s):
    n = len(table.v) if table.v is not None else table.q.shape[0]
    if not 0 <= s < n:
        raise TapkitError(f"state {s} out of range [0, {n})")


def reference_td0_update(table, s, r, s_next):
    """One TD(0) update, v(s) += alpha * (r + gamma * v(s') - v(s)), on a
    copy of the table. The runners' private loops must give the same bytes."""
    _reference_check_index(table, s)
    _reference_check_index(table, s_next)
    v = table.v.copy()
    v[s] += table.alpha * (r + table.gamma * v[s_next] - v[s])
    return replace(table, v=v)


def reference_sarsa_update(table, s, a, r, s_next, a_next):
    """q(s, a) += alpha * (r + gamma * q(s', a') - q(s, a)), on a copy."""
    _reference_check_index(table, s)
    _reference_check_index(table, s_next)
    q = table.q.copy()
    q[s, a] += table.alpha * (r + table.gamma * q[s_next, a_next] - q[s, a])
    return replace(table, q=q)


def reference_q_update(table, s, a, r, s_next):
    """q(s, a) += alpha * (r + gamma * max(q(s')) - q(s, a)), on a copy."""
    _reference_check_index(table, s)
    _reference_check_index(table, s_next)
    q = table.q.copy()
    q[s, a] += table.alpha * (r + table.gamma * np.max(q[s_next]) - q[s, a])
    return replace(table, q=q)


def _reference_check_count(what, count):
    if count < 0:
        raise TapkitError(f"{what} must be >= 0, got {count}")


def reference_rollout_episodes(env, episodes, seed):
    """Right-policy episodes from uniformly random start states, as
    ``(states, rewards)`` arrays with ``rewards[0] == 0``."""
    _reference_check_count("episodes", episodes)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for _ in range(episodes):
        s = int(rng.integers(0, env.n_states))
        states, rewards = [s], [0.0]
        done = s == env.terminal
        while not done:
            s, r, done = env.step(s, RIGHT)
            states.append(s)
            rewards.append(r)
        out.append((np.array(states, dtype=float), np.array(rewards)))
    return out


def reference_direct_td_run(env, episodes, seed, alpha=0.1):
    """TD(0) over the rollouts, no tapping: what ``tapped_td_run`` and
    ``direct_td_run`` must both equal."""
    table = ValueTable(alpha, env.gamma, v=np.zeros(env.n_states))
    for states, rewards in reference_rollout_episodes(env, episodes, seed):
        for t in range(1, len(states)):
            table = reference_td0_update(table, int(states[t - 1]), float(rewards[t]),
                                         int(states[t]))
    return table


def reference_td0_sweeps(env, sweeps, alpha):
    _reference_check_count("sweeps", sweeps)
    table = ValueTable(alpha, env.gamma, v=np.zeros(env.n_states))
    for _ in range(sweeps):
        s, done = 0, False
        while not done:
            s2, r, done = env.step(s, RIGHT)
            table = reference_td0_update(table, s, r, s2)
            s = s2
    return table


def _reference_epsilon_greedy(rng, q, s, epsilon):
    if rng.random() < epsilon:
        return int(rng.integers(0, len(ACTIONS)))
    return int(np.argmax(q[s]))


def reference_q_learning_run(env, episodes, alpha, epsilon, seed):
    _reference_check_count("episodes", episodes)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    table = ValueTable(alpha, env.gamma, q=np.zeros((env.n_states, len(ACTIONS))))
    for _ in range(episodes):
        s = 0
        for _ in range(REFERENCE_MAX_STEPS):
            a = _reference_epsilon_greedy(rng, table.q, s, epsilon)
            s2, r, done = env.step(s, a)
            table = reference_q_update(table, s, a, r, s2)
            s = s2
            if done:
                break
    return table


def reference_sarsa_run(env, episodes, alpha, epsilon, seed):
    _reference_check_count("episodes", episodes)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    table = ValueTable(alpha, env.gamma, q=np.zeros((env.n_states, len(ACTIONS))))
    for _ in range(episodes):
        s = 0
        a = _reference_epsilon_greedy(rng, table.q, s, epsilon)
        for _ in range(REFERENCE_MAX_STEPS):
            s2, r, done = env.step(s, a)
            a2 = _reference_epsilon_greedy(rng, table.q, s2, epsilon)
            table = reference_sarsa_update(table, s, a, r, s2, a2)
            s, a = s2, a2
            if done:
                break
    return table
