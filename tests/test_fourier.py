import cmath
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_contours import (
    ChannelCountMismatch,
    Contour,
    DegreeFit,
    DegreeTooLarge,
    FourierSignature,
    NonFinite,
    ParseError,
    coeffs_to_flat,
    embed,
    embed_many,
    evaluate_series,
    fit_by_degree,
    flat_to_coeffs,
    fourier_coefficients,
    parse_signatures,
    polygon_iou,
    recenter,
    reconstruct,
    reconstruct_many,
    resample_equidistant,
    truncation_l2_error,
    truncation_l2_errors,
    ZeroPerimeter,
)
from fourier_contours import contours, fourier
from fourier_contours.config import DEFAULT_EVAL_IOU, MAX_DEGREE
from fourier_contours.synth import ribbon
from conftest import inline_basis, rows_to_block_end, same_bits, star_shaped, uncached_series


def dft_oracle(points, k):
    """Scalar reference transform: c_k = (1/N) sum z_j exp(-2 pi i k j / N)."""
    n = len(points)
    out = []
    for freq in range(-k, k + 1):
        acc = 0j
        for j, (x, y) in enumerate(points):
            acc += complex(x, y) * cmath.exp(-2j * cmath.pi * freq * j / n)
        out.append(acc / n)
    return out


def series_oracle(coeffs, k, t):
    return sum(
        c * cmath.exp(2j * cmath.pi * freq * t)
        for c, freq in zip(coeffs, range(-k, k + 1))
    )


class TestCoefficients:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_matches_scalar_dft(self, seed, k):
        rng = np.random.default_rng(seed)
        c = star_shaped(rng)
        rs = resample_equidistant(c, 48)
        sig = fourier_coefficients(rs, k)
        want = dft_oracle([tuple(p) for p in rs.points], k)
        assert np.allclose(sig.coeffs, want, atol=1e-12)

    def test_accepts_plain_arrays(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        sig = fourier_coefficients(pts, 1)
        assert sig.degree == 1
        assert sig.c0 == pytest.approx(0j, abs=1e-15)

    def test_degree_capacity(self):
        pts = np.random.default_rng(0).uniform(0, 10, size=(9, 2))
        fourier_coefficients(pts, 4)  # 2*4+1 == 9 exactly
        with pytest.raises(DegreeTooLarge):
            fourier_coefficients(pts, 5)

    def test_c0_is_sample_mean(self, rng):
        c = star_shaped(rng)
        rs = resample_equidistant(c, 80)
        sig = fourier_coefficients(rs, 3)
        mean = rs.points.mean(axis=0)
        assert sig.c0 == pytest.approx(complex(mean[0], mean[1]), abs=1e-12)


class TestFlatLayout:
    def test_order_is_real_imag_by_ascending_frequency(self):
        coeffs = np.array([1 + 2j, 3 + 4j, 5 + 6j], dtype=complex)  # K = 1
        flat = coeffs_to_flat(coeffs)
        assert flat.tolist() == [1, 2, 3, 4, 5, 6]
        back = flat_to_coeffs(flat)
        assert np.array_equal(back, coeffs)

    def test_signature_flat_length(self):
        sig = embed(Contour([(0, 0), (4, 0), (4, 4), (0, 4)]))
        assert sig.flat.shape == (22,)
        assert sig.degree == 5

    def test_flat_rejects_bad_lengths(self):
        for bad in (0, 3, 4, 8, 12, 21):
            with pytest.raises(ChannelCountMismatch):
                flat_to_coeffs(np.zeros(bad))
        with pytest.raises(ChannelCountMismatch):
            flat_to_coeffs(6.0)

    def test_flat_batched(self):
        arr = np.arange(2 * 3 * 6, dtype=float).reshape(2, 3, 6)
        coeffs = flat_to_coeffs(arr)
        assert coeffs.shape == (2, 3, 3)
        assert np.array_equal(coeffs_to_flat(coeffs), arr)

    def test_from_flat_round_trip(self):
        rng = np.random.default_rng(5)
        flat = rng.normal(size=22)
        sig = FourierSignature.from_flat(flat)
        assert np.allclose(sig.flat, flat)


class TestReconstruct:
    def test_series_matches_scalar_oracle(self, rng):
        coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
        vals = evaluate_series(coeffs, 9)
        for j in range(9):
            want = series_oracle(coeffs, 3, j / 9)
            assert vals[j] == pytest.approx(want, abs=1e-12)

    def test_exact_inversion_when_degrees_match(self, rng):
        c = star_shaped(rng)
        rs = resample_equidistant(c, 21)
        sig = fourier_coefficients(rs, 10)
        vals = evaluate_series(sig.coeffs, 21)
        rec = np.stack([vals.real, vals.imag], axis=-1)
        assert np.abs(rec - rs.points).max() < 1e-10

    def test_constant_signature_collapses_to_point(self):
        coeffs = np.zeros(11, dtype=complex)
        coeffs[5] = 3 + 4j
        rec = reconstruct(FourierSignature(coeffs), 6)
        assert np.allclose(rec.vertices, [[3, 4]] * 6)

    def test_default_fifty_points(self):
        sig = embed(Contour([(0, 0), (8, 0), (8, 8), (0, 8)]))
        assert len(reconstruct(sig)) == 50

    def test_series_working_memory_does_not_grow_with_rows(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(20_000, 11)) + 1j * rng.normal(size=(20_000, 11))
        tracemalloc.start()
        try:
            out = evaluate_series(coeffs, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 15 MiB of output; one (20000, 50, 11) product would be 168 MiB
        assert peak < out.nbytes + 4 * 2**20

    def test_batched_series(self, rng):
        batch = rng.normal(size=(4, 5, 7)) + 1j * rng.normal(size=(4, 5, 7))
        vals = evaluate_series(batch, 13)
        assert vals.shape == (4, 5, 13)
        one = evaluate_series(batch[2, 3], 13)
        assert np.array_equal(vals[2, 3], one)

    @pytest.mark.parametrize("past", [0, 1], ids=["block-end", "one-row-past"])
    def test_series_bits_do_not_depend_on_memory_layout(self, past):
        # rows that fill three of evaluate_series' row blocks, then one more
        rows = rows_to_block_end(50 * 11) + past
        rng = np.random.default_rng(rows)
        coeffs = rng.normal(size=(rows, 11)) * 40 + 1j * rng.normal(size=(rows, 11)) * 40
        want = evaluate_series(coeffs, 50)
        assert same_bits(evaluate_series(np.asfortranarray(coeffs), 50), want)
        assert same_bits(evaluate_series(np.asfortranarray(coeffs)[::2], 50), want[::2])

    def test_series_written_into_out(self, rng):
        coeffs = rng.normal(size=(2, 3, 7)) + 1j * rng.normal(size=(2, 3, 7))
        out = np.empty((2, 3, 13), dtype=np.complex128)
        assert evaluate_series(coeffs, 13, out=out) is out
        assert same_bits(out, evaluate_series(coeffs, 13))
        for bad in (np.empty((2, 3, 12), dtype=np.complex128), np.empty((2, 3, 13)),
                    np.empty((2, 13, 3), dtype=np.complex128).transpose(0, 2, 1)):
            with pytest.raises(ValueError, match="C-contiguous complex128"):
                evaluate_series(coeffs, 13, out=bad)


class TestUniqueness:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_invariant_to_vertex_rotation_and_reversal(self, seed):
        rng = np.random.default_rng(seed)
        c = star_shaped(rng)
        base = embed(c).flat
        pts = [tuple(p) for p in c.vertices]
        shift = int(rng.integers(1, len(pts)))
        rotated = embed(Contour(pts[shift:] + pts[:shift])).flat
        reversed_ = embed(Contour(pts[::-1])).flat
        assert np.array_equal(base, rotated)
        assert np.array_equal(base, reversed_)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_translation_moves_only_c0(self, seed):
        rng = np.random.default_rng(seed)
        c = star_shaped(rng)
        dx, dy = float(rng.integers(-400, 400)), float(rng.integers(-400, 400))
        moved = Contour(c.vertices + np.array([dx, dy]))
        a = embed(c).coeffs
        b = embed(moved).coeffs
        k = len(a) // 2
        assert abs(b[k] - a[k] - complex(dx, dy)) < 1e-9
        rest = np.delete(b - a, k)
        assert np.abs(rest).max() < 1e-9

    def test_circle_single_harmonic(self):
        r, cx, cy = 21.0, 64.0, 48.0
        ang = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        pts = np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1)
        sig = fourier_coefficients(resample_equidistant(Contour(pts), 400), 5)
        k = sig.degree
        assert abs(sig.coeffs[k] - complex(cx, cy)) < 1e-12
        assert abs(sig.coeffs[k + 1] - r) < 1e-9
        others = [abs(sig.coeffs[k + f]) for f in range(-5, 6) if f not in (0, 1)]
        assert max(others) < 1e-9

    def test_rotation_of_shape_preserves_magnitudes(self):
        # rotating the drawing about its center permutes phases only; the
        # dense polygon keeps discretization error below the tolerance
        ang = np.linspace(0, 2 * np.pi, 2880, endpoint=False)
        rad = 50 + 6 * np.cos(3 * ang)
        pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        base = np.abs(embed(Contour(pts + 200)).coeffs)
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        turned = np.abs(embed(Contour(pts @ rot.T + 200)).coeffs)
        assert np.abs(base - turned).max() < 1e-6


class TestRecenter:
    def test_shifts_only_c0(self, rng):
        c = star_shaped(rng)
        sig = embed(c)
        out = recenter(sig, (37.0, 41.0))
        k = sig.degree
        assert out.coeffs[k] == sig.coeffs[k] - complex(37, 41)
        assert np.array_equal(np.delete(out.coeffs, k), np.delete(sig.coeffs, k))

    def test_reconstruction_translates(self, rng):
        c = star_shaped(rng)
        sig = embed(c)
        rec = reconstruct(sig, 16)
        shifted = reconstruct(recenter(sig, (10.0, -5.0)), 16)
        assert np.allclose(shifted.vertices, rec.vertices - [10.0, -5.0])


class TestTruncationError:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_non_increasing_in_degree(self, seed):
        rng = np.random.default_rng(seed)
        c = star_shaped(rng)
        rs = resample_equidistant(c, 120)
        errs = [truncation_l2_error(rs, k) for k in range(1, 21)]
        for a, b in zip(errs, errs[1:]):
            assert a >= b

    def test_matches_direct_residual(self, rng):
        c = star_shaped(rng)
        rs = resample_equidistant(c, 96)
        for k in (1, 3, 7):
            sig = fourier_coefficients(rs, k)
            vals = evaluate_series(sig.coeffs, 96)
            z = rs.points[:, 0] + 1j * rs.points[:, 1]
            direct = float(np.mean(np.abs(z - vals) ** 2))
            assert truncation_l2_error(rs, k) == pytest.approx(direct, rel=1e-9)

    def test_batch_equals_single_degree_calls(self, rng):
        rs = resample_equidistant(star_shaped(rng), 120)
        degrees = [7, 1, 3, 1, 59]
        assert truncation_l2_errors(rs, degrees) == [truncation_l2_error(rs, k) for k in degrees]
        assert truncation_l2_errors(rs, []) == []
        with pytest.raises(DegreeTooLarge):
            truncation_l2_errors(rs, [3, 60])

    def test_the_parseval_check_holds_no_copy_of_the_basis(self, rng):
        # the residues and the direct check are FFTs of n-vectors: no basis is
        # built or read
        rs = resample_equidistant(star_shaped(rng), 1024)
        tracemalloc.start()
        try:
            truncation_l2_errors(rs, [5, 511])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([3, 4, 7, 16, 31, 64, 97, 120, 127, 256, 401]))
    def test_fft_tail_matches_the_dense_dft(self, seed, n):
        """Odd, even and prime n at every degree up to the largest, n = 2K + 1
        for odd n: the tails agree with the dense DFT's to 1e-9 relative,
        never rise with K, and are 0 once nothing is truncated."""
        rs = resample_equidistant(star_shaped(np.random.default_rng(seed)), n)
        z = rs.points[:, 0] + 1j * rs.points[:, 1]
        coeffs = (inline_basis(n, None, -1) * z).sum(axis=1) / n
        signed = np.where(np.arange(n) <= n // 2, np.arange(n), np.arange(n) - n)
        degrees = list(range((n - 1) // 2 + 1))
        want = [float(np.sum(np.abs(coeffs[np.abs(signed) > k]) ** 2)) for k in degrees]
        got = truncation_l2_errors(rs, degrees)
        slack = 1e-14 * max(float(np.mean(np.abs(z) ** 2)), 1.0)
        for k, g, w in zip(degrees, got, want):
            assert abs(g - w) <= 1e-9 * max(g, w) + slack, (k, g, w)
        assert all(a >= b for a, b in zip(got, got[1:]))
        assert got[-1] == 0.0 or n % 2 == 0

    def test_zero_when_inversion_exact(self, rng):
        c = star_shaped(rng)
        rs = resample_equidistant(c, 17)
        assert truncation_l2_error(rs, 8) == pytest.approx(0.0, abs=1e-18)

    def test_parseval_identity(self, rng):
        for _ in range(5):
            c = star_shaped(rng)
            rs = resample_equidistant(c, 401)
            sig = fourier_coefficients(rs, 200)
            z = rs.points[:, 0] + 1j * rs.points[:, 1]
            power = float(np.mean(np.abs(z) ** 2))
            coeff_power = float(np.sum(np.abs(sig.coeffs) ** 2))
            assert coeff_power == pytest.approx(power, rel=1e-9)


class TestBasisCache:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 420), st.integers(0, 30))
    def test_built_basis_is_the_inline_expression(self, n, degree):
        basis = fourier._build_basis(n, degree)
        assert same_bits(basis, inline_basis(n, degree, 1)) and basis.flags.c_contiguous

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 400), st.integers(0, 25), st.data())
    def test_a_centre_slice_of_a_wider_basis_gives_the_series_bits(self, n_points, kmax, data):
        # fit_by_degree reads every degree of a sweep from the kmax basis
        deg = data.draw(st.integers(0, kmax))
        rows = data.draw(st.sampled_from([1, 7, 300]))
        rng = np.random.default_rng([n_points, kmax, deg, rows])
        wide = rng.normal(size=(rows, 2 * kmax + 1)) + 1j * rng.normal(size=(rows, 2 * kmax + 1))
        cols = slice(kmax - deg, kmax + deg + 1)
        out = np.empty((rows, n_points), dtype=np.complex128)
        got = fourier._series(wide[:, cols], inline_basis(n_points, kmax, 1)[:, cols], out)
        assert same_bits(got, evaluate_series(wide[:, cols], n_points))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(0, 12),
        st.integers(3, 80),
        st.sampled_from([(), (5,), (3, 4)]),
    )
    def test_callers_match_uncached_reference(self, seed, k, n_points, batch):
        rng = np.random.default_rng(seed)
        rs = resample_equidistant(star_shaped(rng), max(2 * k + 1, 25))
        n = rs.points.shape[0]
        z = rs.points[:, 0] + 1j * rs.points[:, 1]
        want = (inline_basis(n, k, -1) * z).sum(axis=1) / n
        assert same_bits(fourier_coefficients(rs, k).coeffs, want)

        coeffs = rng.normal(size=batch + (2 * k + 1,)) + 1j * rng.normal(size=batch + (2 * k + 1,))
        assert same_bits(evaluate_series(coeffs, n_points), uncached_series(coeffs, n_points))

    @pytest.mark.parametrize("past", [0, 1], ids=["block-end", "one-row-past"])
    @pytest.mark.parametrize("k, n_points", [(0, 3), (5, 50), (12, 80)])
    def test_series_row_blocks_match_uncached_reference(self, k, n_points, past):
        # rows that fill three of evaluate_series' row blocks, then one more
        rows = rows_to_block_end(n_points * (2 * k + 1)) + past
        rng = np.random.default_rng(rows)
        wide = rng.normal(size=(rows, 2 * k + 3)) + 1j * rng.normal(size=(rows, 2 * k + 3))
        # a column slice, as fit_by_degree passes, and a nested batch
        for coeffs in (wide[:, 1:-1], np.stack([wide[:, 2:], wide[::-1, :-2]])):
            assert same_bits(evaluate_series(coeffs, n_points), uncached_series(coeffs, n_points))

    @pytest.mark.parametrize("n, degree", [(400, 199), (1024, 511), (50, 5), (1024, 300), (3000, 12)])
    def test_basis_built_in_row_blocks_is_the_one_shot_expression(self, n, degree):
        assert same_bits(fourier._build_basis(n, degree), inline_basis(n, degree, 1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([25, 64, 400]), st.booleans(), st.data())
    def test_coefficient_rows_in_harmonic_blocks_are_the_one_shot_expression(self, seed, n, past_budget, data):
        # past_budget: so many contours that one harmonic's products exceed
        # contours._BATCH_ELEMENTS, and each block holds a single harmonic
        count = contours._BATCH_ELEMENTS // n + 1 if past_budget else data.draw(st.integers(1, 8))
        k = data.draw(st.integers(0, (n - 1) // 2))
        points = np.random.default_rng(seed).normal(scale=50.0, size=(count, n, 2))
        basis = inline_basis(n, k, -1)
        want = np.stack([(basis * (zi[:, 0] + 1j * zi[:, 1])).sum(axis=1) / n for zi in points])
        assert same_bits(fourier._coefficient_rows(points, k), want)

    def test_one_contour_at_the_caps_embeds_in_little_memory(self, rng):
        # a (2K + 1) x n forward basis at n = 4096, K = 2047 alone takes 256 MiB
        contour = star_shaped(rng)
        tracemalloc.start()
        try:
            embed_many([contour], MAX_DEGREE, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_truncation_errors_unchanged(self):
        # at the second n, a dense n x n DFT product spans three row blocks
        for n in (64, math.isqrt(3 * contours._BATCH_ELEMENTS) + 1):
            rng = np.random.default_rng(5)
            rs = resample_equidistant(star_shaped(rng), n)
            z = rs.points[:, 0] + 1j * rs.points[:, 1]
            coeffs = np.fft.fft(z) / n
            signed = np.where(np.arange(n) <= n // 2, np.arange(n), np.arange(n) - n)
            order = np.lexsort((-signed, -np.abs(signed)))
            running = np.cumsum(np.abs(coeffs[order]) ** 2)
            degrees = [1, 5, 31]
            want = [float(running[np.count_nonzero(np.abs(signed) > k) - 1]) for k in degrees]
            assert truncation_l2_errors(rs, degrees) == want

    def test_threads_give_the_single_thread_bits(self):
        """Eight threads on two cores, switching every microsecond, each
        transform its own contour: every result equals the single-thread
        one."""
        rng = np.random.default_rng(11)
        shapes = [resample_equidistant(star_shaped(rng), 96) for _ in range(8)]

        def work(rs):
            sig = fourier_coefficients(rs, 6)
            return sig.coeffs, evaluate_series(sig.coeffs, 40), truncation_l2_errors(rs, [2, 6])

        want = [work(rs) for rs in shapes]
        got = [None] * len(shapes)

        def run(i):
            for _ in range(5):
                got[i] = work(shapes[i])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(shapes))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        for (c, s, e), (wc, ws, we) in zip(got, want):
            assert same_bits(c, wc) and same_bits(s, ws) and e == we


class TestSignatureBounds:
    def test_largest_accepted_coefficients_evaluate_without_overflow(self):
        limit = np.finfo(np.float64).max / 4 / 3
        coeffs = np.full(3, limit * (1 + 1j))
        with np.errstate(all="raise"):
            z = reconstruct(FourierSignature(coeffs), 64).vertices
        assert np.isfinite(z).all()

    @pytest.mark.parametrize("flat", [[1e308] * 6, [0.0, 0.0, 2e307, 0.0, 0.0, 0.0], [0.0] * 9 + [-1e307]])
    def test_coefficients_whose_series_could_overflow_are_rejected(self, flat):
        with pytest.raises(NonFinite, match="the series would overflow"):
            FourierSignature.from_flat(flat)


class TestBatchEntryPoints:
    def test_embed_many_is_embed_per_contour(self, rng):
        contours = [star_shaped(rng) for _ in range(5)]
        coeffs = embed_many(contours, 4, 120)
        assert coeffs.shape == (5, 9)
        for contour, row in zip(contours, coeffs):
            assert np.array_equal(embed(contour, 4, 120).coeffs, row)
        assert embed_many([], 3, 64).shape == (0, 7)

    def test_embed_many_raises_the_first_contours_error(self, rng):
        dot = Contour(np.full((4, 2), 30.0))
        with pytest.raises(ZeroPerimeter):
            embed_many([star_shaped(rng), dot, star_shaped(rng)], 3, 64)

    def test_parse_signatures_reads_what_embed_writes(self, rng):
        sig = embed(star_shaped(rng), 3, 64)
        lines = ['{"image_id": "a", "instance_id": "t0", "k": 3, "coeffs": %s}' % coeffs_to_flat(sig.coeffs).tolist(),
                 "", '{"image_id": "b", "instance_id": "7", "coeffs": [0, 0, 1, 2, 0, 0]}']
        (a, ia, sa), (b, ib, sb) = parse_signatures(lines)
        assert (a, ia, b, ib) == ("a", "t0", "b", "7")
        assert np.array_equal(sa.coeffs, sig.coeffs) and sb.c0 == 1 + 2j
        assert not sa.coeffs.flags.writeable and not sb.coeffs.flags.writeable

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{", "line 2: bad signature record: "),
            ('{"image_id": "a", "coeffs": [0, 0, 1, 0, 0, 0]}', "line 2: bad signature record: 'instance_id'"),
            ('{"image_id": "a", "instance_id": "i", "coeffs": ["0", 0, 1, 0, 0, 0]}',
             "coeffs must be a flat list of numbers"),
            ('{"image_id": "a", "instance_id": "i", "coeffs": [1e308, 1e308, 1e308, 1e308, 1e308, 1e308]}',
             "line 2: bad signature record: signature coefficients too large"),
            ('{"image_id": [1, 2], "instance_id": "i", "coeffs": [0, 0, 1, 0, 0, 0]}',
             "line 2: bad signature record: image_id and instance_id must be strings"),
            ('{"image_id": "a", "instance_id": {"x": 1}, "coeffs": [0, 0, 1, 0, 0, 0]}',
             "line 2: bad signature record: image_id and instance_id must be strings"),
            pytest.param('{"image_id": "a", "instance_id": "i", "coeffs": [0, 0, 1, 0, 0, 1%s]}' % ("0" * 400),
                         "line 2: bad signature record: int too large to convert to float", id="coeff-1e400"),
        ],
    )
    def test_parse_signatures_names_a_bad_line(self, line, message):
        with pytest.raises(ParseError) as info:
            parse_signatures(['{"image_id": "a", "instance_id": "i", "coeffs": [0, 0, 1, 0, 0, 0]}', line])
        assert str(info.value).startswith("line 2: ") and message in str(info.value)

    def test_parse_signatures_reads_degrees_up_to_the_largest_a_config_embeds(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fourier, "flat_to_coeffs", lambda flat: calls.append(len(flat)) or flat_to_coeffs(flat))
        line = '{"image_id": "a", "instance_id": "i", "k": %d, "coeffs": [%s]}'
        (_, _, sig), = parse_signatures([line % (MAX_DEGREE, ", ".join(["0"] * (4 * MAX_DEGREE + 2)))])
        assert sig.degree == MAX_DEGREE == 2047 and calls == [4 * MAX_DEGREE + 2]
        calls.clear()
        with pytest.raises(ParseError, match="^line 2: bad signature record: 8194 coeffs exceed the 8190 of the largest degree, 2047$"):
            parse_signatures(["", line % (MAX_DEGREE + 1, ", ".join(["0"] * (4 * MAX_DEGREE + 6)))])
        assert calls == []  # rejected on its length, before any conversion

    @pytest.mark.parametrize("k", ["7", "0", "true", "1.0", '"1"', "null"])
    def test_parse_signatures_rejects_a_k_that_is_not_the_degree(self, k):
        line = '{"image_id": "a", "instance_id": "i", "k": %s, "coeffs": [0, 0, 32, 20, 10, 0]}'
        assert parse_signatures([line % 1])[0][2].degree == 1
        with pytest.raises(ParseError, match="^line 1: bad signature record: k must be 1, the degree of the coeffs, got "):
            parse_signatures([line % k])

    @pytest.mark.parametrize("n_points", [3, 50, 1024])
    @pytest.mark.parametrize("degree", [1, 5, 20])
    def test_reconstruct_many_is_reconstruct_per_signature(self, degree, n_points):
        # 300 rows of n' = 50 or 1024 span several of evaluate_series' row blocks
        rng = np.random.default_rng(degree * 10_000 + n_points)
        for count in (1, 7, 300):
            coeffs = rng.normal(scale=30.0, size=(count, 2 * degree + 1, 2)) @ [1, 1j]
            sigs = [FourierSignature(row) for row in coeffs]
            points = reconstruct_many(sigs, n_points)
            assert points.shape == (count, n_points, 2) and points.dtype == np.float64
            for sig, row in zip(sigs, points):
                z = evaluate_series(sig.coeffs, n_points)  # the one-record series
                assert row.tobytes() == reconstruct(sig, n_points).vertices.tobytes()
                assert row.tobytes() == np.stack([z.real, z.imag], axis=1).tobytes()

    def test_reconstruct_many_takes_one_degree(self, rng):
        sigs = [FourierSignature(rng.normal(size=size) + 0j) for size in (11, 11, 7)]
        assert reconstruct_many(sigs[:2], 9).shape == (2, 9, 2)
        with pytest.raises(ChannelCountMismatch, match="one degree, got degrees \\[3, 5\\]"):
            reconstruct_many(sigs, 9)
        assert reconstruct_many([], 9).shape == (0, 9, 2)
        with pytest.raises(ValueError, match="n_points >= 3"):
            reconstruct_many(sigs[:1], 2)

    def test_reconstruct_many_is_one_series_call(self, rng):
        sigs = [FourierSignature(rng.normal(size=11) + 0j) for _ in range(4)]
        with mock.patch.object(fourier, "evaluate_series", wraps=fourier.evaluate_series) as series:
            reconstruct_many(sigs, 20)
        assert series.call_count == 1 and series.call_args.args[0].shape == (4, 11)

    def test_fit_by_degree_is_the_one_contour_figures(self, rng):
        contours = [star_shaped(rng) for _ in range(3)]
        degrees = [1, 3, 6]
        fits = fit_by_degree(contours, degrees, n=200, n_points=40, supersample=3)
        assert len(fits) == 3
        for contour, contour_fits in zip(contours, fits):
            samples = resample_equidistant(contour, 200)
            full = fourier_coefficients(samples, 6).coeffs
            errors = truncation_l2_errors(samples, degrees)
            for fit, deg, err in zip(contour_fits, degrees, errors):
                assert isinstance(fit, DegreeFit) and fit.degree == deg and fit.l2_error == err
                recon = reconstruct(FourierSignature(full[6 - deg : 6 + deg + 1]), 40)
                assert np.array_equal(fit.contour.vertices, recon.vertices)
                assert fit.iou == polygon_iou(contour, recon, 3)
        assert fit_by_degree([], degrees) == []

    def test_fit_by_degree_checks_the_degree_against_n(self, rng):
        with pytest.raises(DegreeTooLarge):
            fit_by_degree([star_shaped(rng)], [3, 40], n=64)


class TestWhereTheDefaultDegreeStopsFitting:
    """A 30 px-thick, 400 px-long ribbon at 80 px amplitude: at 2.5 cycles
    K = 5 no longer fits it, and a perfect prediction of its targets decodes
    to a false positive and a miss."""

    def test_the_fit_at_the_defaults_misses_the_eval_threshold(self):
        # IoU 0.10 at the defaults (K = 5, n' = 50); 2 cycles of 60 px still fit
        (fit,), = fit_by_degree([ribbon(300, 200, 400, 30, 80, cycles=2.5)], [5])
        assert fit.iou < DEFAULT_EVAL_IOU
        (fit,), = fit_by_degree([ribbon(300, 200, 400, 30, 60, cycles=2)], [5])
        assert fit.iou >= DEFAULT_EVAL_IOU

    def test_degree_20_and_100_points_fit_it(self):
        # IoU 0.87; 0.80 at K = 20 with the default n' = 50
        (fit,), = fit_by_degree([ribbon(300, 200, 400, 30, 80, cycles=2.5)], [20], n=400, n_points=100)
        assert fit.iou >= 0.85
