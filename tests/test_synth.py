import hashlib
import math

import numpy as np
import pytest

from roadcost.dataio import save_dataset
from roadcost.errors import GenerationError
from roadcost.graph import DAY_CLASSES, RoadGraph, build_dual
from roadcost.solver import build_q, solve_weights
from roadcost.synth import (
    SyntheticSpec,
    _draw_truth,
    _entry_topups,
    equal_split_schedule,
    generate_synthetic,
)
from roadcost.trips import RecordTable, TripSet, record_tag_weights, trip_costs


def _trips_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ta, tb in zip(a, b):
        if ta.cost != tb.cost or len(ta.records) != len(tb.records):
            return False
        for ra, rb in zip(ta.records, tb.records):
            if (ra.edge, ra.day_class, ra.enter, ra.exit) != (
                rb.edge, rb.day_class, rb.enter, rb.exit,
            ):
                return False
    return True


class TestDeterminism:
    def test_same_seed_identical(self):
        spec = SyntheticSpec(rows=4, cols=4, n_trips=30, noise=0.1)
        g1, t1, trips1 = generate_synthetic(spec, seed=5)
        g2, t2, trips2 = generate_synthetic(spec, seed=5)
        assert np.array_equal(g1.lengths, g2.lengths)
        assert np.array_equal(t1.values, t2.values)
        assert _trips_equal(trips1, trips2)

    def test_different_seed_differs(self):
        spec = SyntheticSpec(rows=4, cols=4, n_trips=30)
        _, t1, trips1 = generate_synthetic(spec, seed=5)
        _, t2, trips2 = generate_synthetic(spec, seed=6)
        assert not np.array_equal(t1.values, t2.values)


class TestGenerationBasics:
    def test_grid_shape(self):
        spec = SyntheticSpec(rows=3, cols=4, n_trips=0)
        graph, _, trips = generate_synthetic(spec, seed=0)
        assert graph.n_vertices == 12
        # horizontal roads: 3*3, vertical roads: 2*4, two directions each
        assert graph.n_edges == 2 * (3 * 3 + 2 * 4)
        assert len(trips) == 0

    def test_trips_valid_against_graph(self):
        spec = SyntheticSpec(rows=4, cols=4, n_trips=40)
        graph, _, trips = generate_synthetic(spec, seed=1)
        trips.validate_against(graph)

    def test_costs_match_model_when_noise_free(self):
        from roadcost.trips import trip_cost

        spec = SyntheticSpec(rows=4, cols=4, n_trips=25, noise=0.0)
        graph, truth, trips = generate_synthetic(spec, seed=2)
        for trip in trips:
            assert trip.cost == pytest.approx(trip_cost(trip, graph, truth), rel=1e-12)

    def test_noise_perturbs_costs(self):
        from roadcost.trips import trip_cost

        spec = SyntheticSpec(rows=4, cols=4, n_trips=25, noise=0.1)
        graph, truth, trips = generate_synthetic(spec, seed=2)
        deviations = [
            abs(t.cost - trip_cost(t, graph, truth)) / trip_cost(t, graph, truth)
            for t in trips
        ]
        assert max(deviations) > 0.01

    def test_no_immediate_u_turns(self):
        spec = SyntheticSpec(rows=5, cols=5, n_trips=60, trip_len=(5, 10))
        graph, _, trips = generate_synthetic(spec, seed=3)
        dual = build_dual(graph)
        for trip in trips:
            for r1, r2 in zip(trip.records, trip.records[1:]):
                reverse = (
                    graph.tails[r1.edge] == graph.heads[r2.edge]
                    and graph.heads[r1.edge] == graph.tails[r2.edge]
                )
                assert not reverse
                k = dual.dual_edge_index(r1.edge, r2.edge)
                assert k is not None and not dual.reverse_mask[k]

    def test_walk_longer_than_a_day_raises(self):
        # 3 km segments at <= 65 km/h take >= 166 s each; 600 of them exceed a day
        spec = SyntheticSpec(
            rows=3, cols=3, n_trips=1, trip_len=(600, 600), length_range=(3000.0, 3000.0)
        )
        with pytest.raises(GenerationError, match="more than a day"):
            generate_synthetic(spec, seed=0)

    def test_timestamps_on_second_grid(self):
        # HH:MM:SS serialization is lossless only for whole-second times
        spec = SyntheticSpec(rows=4, cols=4, n_trips=20)
        _, _, trips = generate_synthetic(spec, seed=4)
        for trip in trips:
            for rec in trip.records:
                assert abs(rec.enter * 60 - round(rec.enter * 60)) < 1e-6
                assert abs(rec.exit * 60 - round(rec.exit * 60)) < 1e-6

    def test_speed_limit_truth(self):
        spec = SyntheticSpec(
            rows=3, cols=3, n_trips=5,
            speed_limit_choices=(50.0, 110.0), truth_from_speed_limits=True,
        )
        graph, truth, _ = generate_synthetic(spec, seed=5)
        np.testing.assert_allclose(truth.values[: graph.n_edges], 3.6 / graph.speed_limits)


class TestCoverage:
    def test_target_met(self):
        spec = SyntheticSpec(rows=6, cols=6, n_trips=80, trip_len=(3, 6), coverage=0.5)
        graph, _, trips = generate_synthetic(spec, seed=6)
        covered = {r.edge for t in trips for r in t.records}
        assert len(covered) / graph.n_edges >= 0.5

    def test_unreachable_target_raises(self):
        spec = SyntheticSpec(rows=6, cols=6, n_trips=2, trip_len=(1, 1), coverage=0.9)
        with pytest.raises(GenerationError, match="coverage"):
            generate_synthetic(spec, seed=7)


class TestCoverAllEntries:
    def test_every_entry_observed(self):
        spec = SyntheticSpec(rows=3, cols=3, n_trips=10, cover_all_entries=True)
        graph, _, trips = generate_synthetic(spec, seed=8)
        touched = np.zeros(graph.n_entries, dtype=bool)
        for trip in trips:
            for rec in trip.records:
                for tag, _ in record_tag_weights(rec, graph.tag_schedule):
                    touched[tag * graph.n_edges + rec.edge] = True
        assert touched.all()

    def test_noise_free_recovery(self):
        spec = SyntheticSpec(rows=4, cols=4, n_trips=30, noise=0.0, cover_all_entries=True)
        graph, truth, trips = generate_synthetic(spec, seed=9)
        q = build_q(trips, graph)
        d, _ = solve_weights(q, trips.costs(), None, None, 0.0, 0.0, 1e-10, tol=1e-12)
        np.testing.assert_allclose(d, truth.values, rtol=1e-6)


class TestSpecValidation:
    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(rows=1, cols=5)

    def test_range_count_mismatch(self):
        with pytest.raises(ValueError, match="weight range"):
            SyntheticSpec(tags=("A",), weight_ranges=((0.1, 0.2), (0.3, 0.4)))

    def test_truth_needs_limits(self):
        with pytest.raises(ValueError, match="speed"):
            SyntheticSpec(truth_from_speed_limits=True)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"tags": (), "weight_ranges": ()}, "at least one tag"),
            ({"noise": math.nan}, "noise"),
            ({"noise": math.inf}, "noise"),
            ({"weight_ranges": ((0.04, math.inf), (0.08, 0.2))}, "weight range"),
            ({"speed_limit_choices": (math.nan,)}, "speed limit"),
            ({"speed_limit_choices": (50.0, math.inf)}, "speed limit"),
            ({"speed_limit_choices": (50.0, 0.0)}, "speed limit"),
            ({"length_range": (200.0, 50.0)}, "length range"),
            ({"length_range": (0.0, 0.0)}, "length range"),
            ({"length_range": (50.0, math.inf)}, "length range"),
            ({"length_range": (math.nan, 50.0)}, "length range"),
        ],
    )
    def test_bad_bounds_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(**fields)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"rows": 3.5}, "rows"),
            ({"cols": 4.0}, "cols"),
            ({"n_trips": 5.5}, "n_trips"),
            ({"trip_len": (1.5, 3)}, r"trip_len\[0\]"),
            ({"trip_len": (2, 3.9)}, r"trip_len\[1\]"),
        ],
    )
    def test_non_integer_counts_rejected(self, fields, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SyntheticSpec(**fields)

    def test_numpy_integer_counts_accepted(self):
        spec = SyntheticSpec(
            rows=np.int64(3), cols=3, n_trips=np.int32(4), trip_len=(np.int64(1), 2)
        )
        assert len(generate_synthetic(spec, seed=0)[2]) == 4

    def test_equal_split_schedule_partitions(self):
        schedule = equal_split_schedule(("A", "B", "C"))
        assert schedule.n_tags == 3
        assert schedule.tag_of("weekday", 0.0) == 0
        assert schedule.tag_of("weekday", 500.0) == 1
        assert schedule.tag_of("weekend", 720.0) == 0


# sha256 of every file ``save_dataset`` writes, for specs that together take
# every branch of the generator (coverage steering, noise, speed-limit truth,
# the weekend day class, entry top-ups over three tags). Computed with numpy
# 2.4.6; a change to the draw order, the timing or the record columns fails.
PINNED_DATASETS = {
    "coverage-noise-limit-truth": (
        SyntheticSpec(
            rows=4, cols=5, n_trips=40, trip_len=(3, 8), coverage=0.6, noise=0.1,
            speed_limit_choices=(50.0, 110.0), truth_from_speed_limits=True,
        ),
        11,
        {
            "costs": "c72b3609e7afa4027a72356c43e7dd4f7e477334b57f9558ac54c0cff71ea480",
            "network": "d2b554c6a1a29fcc99a208afd6a3c32c942314f627210a501de35b24e5e81ccd",
            "schedule": "35ac0f446497d35a812d8410a516d2ad46482c9a9600d5812c3176aeea997e6c",
            "trips": "21e2ff259909d74fa05e109aa0a181ec05b9801e568164c65539bc4bbe92e868",
            "truth": "0e429b9382345ef1962766efde4e4f4ee0253c397f327427ce853a7c5e96bcd5",
        },
    ),
    "weekend-all-entries-three-tags": (
        SyntheticSpec(
            rows=3, cols=4, n_trips=12, tags=("A", "B", "C"),
            weight_ranges=((0.04, 0.10), (0.08, 0.20), (0.10, 0.30)), noise=0.2,
            day_class="weekend", cover_all_entries=True,
        ),
        12,
        {
            "costs": "62b92be944d6f3d74ce7ab46b7f33748ffd68ee36e26bb15c019c686c4048c79",
            "network": "3ccaabc14ba324f0bb27a554033de0f7809d4636c1c8232651044cad21de705b",
            "schedule": "6bba7ab70faa3b4b12f769ebd09a681e90678bcdc5975ae761e2695a0852fb48",
            "trips": "00a0fc6170887c5f926d35a932a8ca7cb6a7ecafdbf15c3eb161874ebebcd54b",
            "truth": "296dc7477607481f4e3ec82dd164cc0e48c5eff68497e278a90507f06cdcab44",
        },
    ),
    "benchmark-shape": (
        SyntheticSpec(
            rows=6, cols=6, n_trips=60, coverage=0.3, noise=0.05,
            speed_limit_choices=(50.0, 100.0),
        ),
        13,
        {
            "costs": "3430723bc327fc0e943f23bbdf20f07592d14f0d9488c5b6b37d610e57d1ea40",
            "network": "7cf20c61c08c1c126c91422844a67a84706eddbe06d7c2b09acafae30e6a6f97",
            "schedule": "35ac0f446497d35a812d8410a516d2ad46482c9a9600d5812c3176aeea997e6c",
            "trips": "77b9641ab422bead59478ef246ee92504ce5e836c6f307d76c5297f686860742",
            "truth": "9556700be0824b9eaf62ae434a046f451f97113f2f07c5270b8b490926b42e30",
        },
    ),
    # three choices: each road's limit is an integers(3) draw
    "three-speed-limits": (
        SyntheticSpec(
            rows=4, cols=5, n_trips=30, noise=0.1, speed_limit_choices=(30.0, 50.0, 80.0),
        ),
        14,
        {
            "costs": "1d744b45f02e4fb6c67f78689aa168d043ce060c7a7b9ac0f45d3cc80eb72aa0",
            "network": "0b712e2e25c489af253da74fb56221974c4058bea8a6170457da220037629ee5",
            "schedule": "35ac0f446497d35a812d8410a516d2ad46482c9a9600d5812c3176aeea997e6c",
            "trips": "f29733af14941d9b1f25a8e0fd768ed2e9d5b32fd47b55f312af0e4588876a30",
            "truth": "52c75af523c5ada5e87227a977a8ea53b41ce1a65434707469d9c1f41bf76db7",
        },
    ),
    # every walk step on a 2x2 grid has one onward option, so draws nothing
    "two-by-two-single-options": (
        SyntheticSpec(rows=2, cols=2, n_trips=20, trip_len=(1, 6)),
        15,
        {
            "costs": "8bd6a3505e3b29d669385334dfd0ff7d2b4de99b0d2a8ec6c06f8cb7b54ebbd3",
            "network": "440b449ae84f3824621a93a10eda40847bd023af5ff0b66b22dafc8ae5b502c4",
            "schedule": "35ac0f446497d35a812d8410a516d2ad46482c9a9600d5812c3176aeea997e6c",
            "trips": "26f88e9708f7a705d4fac3b215c070ddec8170f7d7c667e6fe90ea954d5b98a2",
            "truth": "e738ecdd7f42afccb77c1d224821af1363f7d7056ff321aca23d6e24596f8b2a",
        },
    ),
    # the trip-length draw integers(1, 2) consumes nothing
    "single-record-walks": (
        SyntheticSpec(rows=4, cols=3, n_trips=25, trip_len=(1, 1), coverage=0.5),
        16,
        {
            "costs": "4d86f05481b39d1121c02e793a7909890e8166993828a501391fd21ccad909c8",
            "network": "5ca94afafa1539e7017ec551ddc2adb9ceab8759518a51acdce42f228c65deb9",
            "schedule": "35ac0f446497d35a812d8410a516d2ad46482c9a9600d5812c3176aeea997e6c",
            "trips": "eeb0a3251dc20b8b3d360c6c1cc630437d6324321846a49c21659601b276a3a1",
            "truth": "0a54ded6e7a58bcef61ae430562d76420cdfffca701d176a3b7741975c890c9e",
        },
    ),
    "topups-only": (
        SyntheticSpec(rows=3, cols=3, n_trips=0, noise=0.1, cover_all_entries=True),
        17,
        {
            "costs": "5bd6d9aa62269d6dccbc17ed881bc03faa570dcf7bda6c3f6f6ffb1bdb99ad3c",
            "network": "91a761650a6375a229366724335c920a32b789fff608b1b6b040e7f2127dc859",
            "schedule": "35ac0f446497d35a812d8410a516d2ad46482c9a9600d5812c3176aeea997e6c",
            "trips": "83706cca4f87d8818215767ee485ba3496f907007cf3751c95eaa08e404aa171",
            "truth": "0c28a9663e53f972f2cfdf0b6e6b0c7e85d2fe652dca9a6ab4b79f4fc2c275a8",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DATASETS))
def test_saved_dataset_bytes_are_pinned(tmp_path, name):
    spec, seed, digests = PINNED_DATASETS[name]
    graph, truth, trips = generate_synthetic(spec, seed)
    paths = save_dataset(graph, trips, tmp_path, truth=truth)
    written = {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}
    assert written == digests


# ---------------------------------------------------------------- reference generator
# The generator as it was before walk steps with one option stopped drawing
# and walk times moved to plain floats: one ``rng.choice`` per speed limit,
# one scalar ``uniform`` per road length, an ``integers`` call on every walk
# step, numpy durations per walk and a per-trip coverage update. The library
# must write the same datasets from fewer calls. Ground truth and the entry
# top-ups are drawn by the library's own helpers, which that change left alone.

_SECONDS_PER_DAY = 86_400


def grid_graph_reference(spec, rng):
    vertices = [f"v{r}_{c}" for r in range(spec.rows) for c in range(spec.cols)]
    roads = []
    for r in range(spec.rows):
        for c in range(spec.cols):
            if c + 1 < spec.cols:
                roads.append((f"v{r}_{c}", f"v{r}_{c + 1}"))
            if r + 1 < spec.rows:
                roads.append((f"v{r}_{c}", f"v{r + 1}_{c}"))
    edges, lengths, limits = [], [], []
    for a, b in roads:
        length = rng.uniform(*spec.length_range)
        limit = float(rng.choice(spec.speed_limit_choices)) if spec.speed_limit_choices else None
        for tail, head in ((a, b), (b, a)):
            edges.append((tail, head))
            lengths.append(length)
            limits.append(limit)
    return RoadGraph.from_edges(
        vertices, edges, lengths, equal_split_schedule(spec.tags), speed_limits=limits
    )


def walk_reference(onward, start, n, rng):
    walk = [start]
    for _ in range(n - 1):
        options = onward[walk[-1]]
        if not options:
            break
        walk.append(options[rng.integers(len(options))])
    return walk


def clock_reference(graph, walk, rng):
    speeds = rng.uniform(25.0, 65.0, size=len(walk))
    durations = np.maximum(1, np.rint(3.6 * graph.lengths[walk] / speeds)).astype(np.int64)
    total = int(durations.sum())
    if total > _SECONDS_PER_DAY:
        raise GenerationError(f"a walk of {len(walk)} edges takes {total} s, more than a day")
    start = int(rng.integers(0, max(1, _SECONDS_PER_DAY - total)))
    return [start, *(start + np.cumsum(durations)).tolist()]


def generate_reference(spec, seed):
    for attempt in range(3):
        rng = np.random.default_rng([seed, attempt])
        graph = grid_graph_reference(spec, rng)
        truth = _draw_truth(spec, graph, rng)
        dual = build_dual(graph)
        ptr, dst = dual.out_indptr.tolist(), dual.edge_dst.tolist()
        keep = (~dual.reverse_mask).tolist()
        onward = [[v for v, k in zip(dst[a:b], keep[a:b]) if k] for a, b in zip(ptr, ptr[1:])]
        covered = np.zeros(graph.n_edges, dtype=bool)
        n_covered = 0
        walks, clocks, factors = [], [], []
        for _ in range(spec.n_trips):
            if spec.coverage is not None and n_covered / graph.n_edges < spec.coverage:
                start = int(rng.choice(np.nonzero(~covered)[0]))
            else:
                start = int(rng.integers(graph.n_edges))
            n = int(rng.integers(spec.trip_len[0], spec.trip_len[1] + 1))
            walk = walk_reference(onward, start, n, rng)
            walks.append(walk)
            clocks.append(clock_reference(graph, walk, rng))
            z = rng.standard_normal() if spec.noise else 0.0
            factors.append(max(0.05, 1.0 + spec.noise * z))
            n_covered += len({e for e in walk if not covered[e]})
            covered[walk] = True
        edges = [e for walk in walks for e in walk]
        table = RecordTable(
            np.repeat(np.arange(len(walks)), [len(walk) for walk in walks]),
            np.array(edges, dtype=np.int64),
            np.full(len(edges), DAY_CLASSES.index(spec.day_class), dtype=np.int8),
            np.array([t for clock in clocks for t in clock[:-1]], dtype=np.int64) / 60.0,
            np.array([t for clock in clocks for t in clock[1:]], dtype=np.int64) / 60.0,
        )
        if spec.cover_all_entries:
            topups, topup_factors = _entry_topups(graph, spec.noise, len(walks), rng)
            table = RecordTable(*map(np.concatenate, zip(table, topups)))
            factors = np.concatenate([factors, topup_factors])
        if (
            spec.n_trips == 0
            or spec.coverage is None
            or n_covered / graph.n_edges >= spec.coverage - 1e-12
            or spec.cover_all_entries
        ):
            priced = trip_costs(TripSet.from_table(table, np.zeros(len(factors))), graph, truth)
            return graph, truth, TripSet.from_table(table, priced * factors)
    raise GenerationError(
        f"could not reach edge coverage {spec.coverage:.2f} with "
        f"{spec.n_trips} trips of length {spec.trip_len} (got {n_covered / graph.n_edges:.2f})"
    )


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


ORACLE_SPECS = {
    "defaults": SyntheticSpec(rows=5, cols=5, n_trips=40),
    "coverage-noise-three-limits": SyntheticSpec(
        rows=6, cols=7, n_trips=60, coverage=0.5, noise=0.1,
        speed_limit_choices=(30.0, 50.0, 80.0),
    ),
    "full-coverage": SyntheticSpec(rows=4, cols=4, n_trips=120, trip_len=(2, 5), coverage=1.0),
    "two-by-two": SyntheticSpec(rows=2, cols=2, n_trips=25, trip_len=(1, 6), noise=0.3),
    "two-rows": SyntheticSpec(rows=2, cols=9, n_trips=30, trip_len=(3, 15)),
    "single-record-walks": SyntheticSpec(
        rows=4, cols=4, n_trips=50, trip_len=(1, 1), coverage=0.8, noise=0.05,
    ),
    "long-walks": SyntheticSpec(rows=8, cols=3, n_trips=20, trip_len=(20, 40), noise=0.2),
    "topups-only": SyntheticSpec(rows=3, cols=3, n_trips=0, noise=0.1, cover_all_entries=True),
    "weekend-limit-truth-topups": SyntheticSpec(
        rows=3, cols=4, n_trips=15, tags=("A", "B", "C"),
        weight_ranges=((0.04, 0.10), (0.08, 0.20), (0.10, 0.30)),
        speed_limit_choices=(50, 100), truth_from_speed_limits=True,
        day_class="weekend", cover_all_entries=True, noise=0.1,
    ),
    "short-equal-lengths": SyntheticSpec(rows=3, cols=5, n_trips=30, length_range=(1.0, 1.0)),
}


@pytest.mark.parametrize("seed", [0, 7, 23])
@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_generator_matches_reference(name, seed):
    spec = ORACLE_SPECS[name]
    graph, truth, trips = generate_synthetic(spec, seed)
    want_graph, want_truth, want_trips = generate_reference(spec, seed)
    for got, want in zip(trips.table, want_trips.table):
        assert_bitwise_equal(got, want)
    assert_bitwise_equal(trips.costs(), want_trips.costs())
    assert_bitwise_equal(graph.lengths, want_graph.lengths)
    assert_bitwise_equal(graph.speed_limits, want_graph.speed_limits)
    assert_bitwise_equal(truth.values, want_truth.values)
    assert graph.edge_ids == want_graph.edge_ids
    assert graph.vertex_ids == want_graph.vertex_ids


@pytest.mark.parametrize(
    "spec",
    [
        SyntheticSpec(rows=6, cols=6, n_trips=2, trip_len=(1, 1), coverage=0.9),
        SyntheticSpec(rows=5, cols=5, n_trips=30, trip_len=(2, 4), coverage=0.95),
        SyntheticSpec(rows=3, cols=3, n_trips=1, trip_len=(600, 600),
                      length_range=(3000.0, 3000.0)),
        SyntheticSpec(rows=4, cols=4, n_trips=20, trip_len=(1, 700), noise=0.1,
                      length_range=(2000.0, 3000.0)),
    ],
)
def test_generation_errors_match_reference(spec):
    with pytest.raises(GenerationError) as want:
        generate_reference(spec, 3)
    with pytest.raises(GenerationError) as got:
        generate_synthetic(spec, 3)
    assert str(got.value) == str(want.value)


def test_single_option_steps_draw_nothing(rng_calls):
    # every edge of a 2x2 grid has one onward option besides its u-turn
    generate_synthetic(SyntheticSpec(rows=2, cols=2, n_trips=20, trip_len=(2, 6)), seed=15)
    # lengths, two tags of truth, then per walk its start edge, length and
    # start second, and its speeds
    assert rng_calls == {"uniform": 1 + 2 + 20, "integers": 3 * 20}
