"""The one statistics object of a (law, channel) pair.

``PairStats`` replaced two ways of measuring a pair: the corner point and
``verify_c2`` joined W into a new law and called the generic entropy
functions, and the simulator kept its own tables and formulas.  The
simulator's seeded outputs must keep every bit of the old code
(``sequential_reference.CodecStats`` and the codebook, trial loop and exact
equivocation that read it); the corner point and the C2 residuals may move
by rounding only.
"""

import numpy as np
import pytest

import graywyner as gw
from graywyner import infotheory
from graywyner.errors import EnumerationTooLargeError

import sequential_reference as ref
from conftest import acceptance_joints, copy_pair, example1, example2, random_channel

MEASURE_MOVE_TOL = 1e-14


def _channels(pmf, rng):
    """Random, constant, copy, component-witness and X_0-copy channels."""
    return {
        "random": random_channel(rng, pmf),
        "constant": gw.constant_channel(pmf),
        "copy": gw.copy_channel(pmf),
        "component": gw.gk_common_information(pmf).witness,
        "x0": gw.variable_channel(pmf, 0),
    }


def _pairs():
    rng = np.random.default_rng(20261018)
    laws = acceptance_joints(100) + [example1(), example2()]
    return [
        (f"law{i}-{name}", pmf, w)
        for i, pmf in enumerate(laws)
        for name, w in _channels(pmf, rng).items()
    ]


PAIRS = _pairs()


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _same_tables(stats, old):
    assert stats.pair.tobytes() == old.pair_full.tobytes()
    assert stats.p_w.tobytes() == old.p_w.tobytes()
    assert stats.cost.tobytes() == old.cost_full.tobytes()
    assert stats.h_pair == old.h_pair
    for k in range(stats.pmf.k):
        assert stats.pair_k[k].tobytes() == old.pair_k[k].tobytes()
        assert stats.cost_k[k].tobytes() == old.cost_k[k].tobytes()
        assert stats.h_pair_k[k] == old.h_pair_k[k]


def _same_measures(stats, old):
    k_range = range(stats.pmf.k)
    assert _bits(stats.mi) == _bits(old.common_rate())
    assert _bits(stats.h_given_w) == _bits([old.private_rate(k) for k in k_range])
    assert _bits(stats.h_given_wk) == _bits([old.equivocation_target(k) for k in k_range])


def test_stats_keep_every_bit_of_the_codec_tables():
    for _, pmf, w in PAIRS:
        stats = infotheory.PairStats(pmf, w)
        old = ref.CodecStats(pmf, w)
        _same_tables(stats, old)
        _same_measures(stats, old)


def test_simulator_is_bit_identical_to_the_codec_stats_reference():
    cfg = gw.CodeConfig(n=2, slack=0.2, typicality_tolerance=0.15, seed=11)
    equivocations = 0
    for name, pmf, w in PAIRS:
        book = gw.build_codebook(pmf, w, cfg)
        old = ref.build_codebook(pmf, w, cfg)
        assert book.m0 == old.m0, name
        assert book.bin_counts == old.bin_counts, name
        assert book.w_codewords.dtype == old.w_codewords.dtype, name
        assert book.w_codewords.tobytes() == old.w_codewords.tobytes(), name
        assert gw.run_trials(pmf, w, cfg, 12) == ref.run_trials(pmf, w, cfg, 12), name
        for k in range(pmf.k):
            try:
                value = gw.exact_equivocation(pmf, w, book, cfg, k)
            except EnumerationTooLargeError:
                continue
            assert _bits(value) == _bits(ref.exact_equivocation(pmf, old, k)), name
            equivocations += 1
    assert equivocations > 1000


def test_corner_points_and_c2_residuals_move_by_rounding_only():
    for name, pmf, w in PAIRS:
        corner = gw.corner_point(pmf, w)
        r0, rk, delta = ref.corner_point(pmf, w)
        assert abs(corner.r0 - r0) <= MEASURE_MOVE_TOL, name
        assert max(abs(a - b) for a, b in zip(corner.rk, rk)) <= MEASURE_MOVE_TOL, name
        assert abs(corner.delta - delta) <= MEASURE_MOVE_TOL, name
    for pmf in acceptance_joints(100) + [example1(), example2()]:
        report = gw.verify_c2(pmf)
        rates, mi = ref.c2_residuals(pmf)
        assert max(abs(a - b) for a, b in zip(report.rate_residuals, rates)) <= MEASURE_MOVE_TOL
        assert abs(report.mi_residual - mi) <= MEASURE_MOVE_TOL


def _copy_pair_book():
    pmf = copy_pair()
    w = gw.variable_channel(pmf, 0)
    cfg = gw.CodeConfig(n=4, slack=0.2, seed=49)
    return pmf, w, cfg, gw.build_codebook(pmf, w, cfg)


@pytest.mark.parametrize("other", ["pmf", "w"])
def test_codec_calls_need_the_codebook_own_law_and_channel(other):
    # An equal-valued copy is still another object: the codebook's
    # statistics belong to the objects it was built from.
    pmf, w, cfg, book = _copy_pair_book()
    twin_pmf = gw.JointPmf(pmf.variable_names, pmf.cardinalities, pmf.probabilities)
    twin_w = gw.AuxChannel(w.w_cardinality, w.rows)
    args = (twin_pmf, w) if other == "pmf" else (pmf, twin_w)
    x = np.array([1, 0, 1, 1])
    msg = gw.encode(book, pmf, w, np.stack([x, x]))
    with pytest.raises(ValueError, match="codebook was built from"):
        gw.encode(book, *args, np.stack([x, x]))
    with pytest.raises(ValueError, match="codebook was built from"):
        gw.decode(book, *args, 0, msg.j0, msg.bins[0])
    with pytest.raises(ValueError, match="codebook was built from"):
        gw.exact_equivocation(*args, book, cfg, 0)


def test_one_statistics_object_per_simulation(monkeypatch):
    built = []
    init = infotheory.PairStats.__init__

    def counted(self, pmf, w):
        built.append(pmf)
        init(self, pmf, w)

    monkeypatch.setattr(infotheory.PairStats, "__init__", counted)
    pmf, w, cfg, book = _copy_pair_book()
    assert len(built) == 1
    gw.run_trials(pmf, w, cfg, 5)
    assert len(built) == 2
    x = np.array([1, 0, 1, 1])
    msg = gw.encode(book, pmf, w, np.stack([x, x]))
    assert np.array_equal(gw.decode(book, pmf, w, 0, msg.j0, msg.bins[0]), x)
    assert gw.exact_equivocation(pmf, w, book, cfg, 0) == pytest.approx(0.0, abs=1e-9)
    assert len(built) == 2
    assert book.stats.pmf is pmf and book.stats.w is w
