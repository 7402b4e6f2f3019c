"""End-to-end acceptance checks, one test and one printed verdict per item.

Each test prints `criterion NN [PASS|FAIL] <label>` so a plain `pytest -s`
run shows the scoreboard; the assert carries the same condition so pytest
records the verdict either way.
"""

import os
import time
from pathlib import Path

import numpy as np

from _digits import make_synthetic_idx
from _util import random_psd, random_symmetric, random_unit_vector, unit_start
from convkernel.config import parse_config
from convkernel.experiments import (
    run_depth_sweep,
    run_eigvec_gallery,
    run_mnist_experiment,
)
from convkernel.kernels import (
    Architecture,
    ConvGeometry,
    FeatureTransform,
    GeometryKind,
    Padding,
    apply_conv_operator,
    feature_transforms,
)
from convkernel.regression import (
    RegressionProblem,
    bias_conditional,
    bias_mc,
    excess_risk_mc,
    variance_mc,
)
from _oracles import basis_matrices, dense, limit_transform, variance_lower_bound


def verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {number} {label}{suffix}"


def loop_basis_apply(matrix: np.ndarray, geometry: ConvGeometry,
                     padding: Padding) -> np.ndarray:
    """Independent oracle: sum B_k^T X B_k with loop-built shift matrices."""
    p = geometry.p
    if geometry.kind is GeometryKind.ONE_D:
        shifts = [(-1,), (0,), (1,)]
    else:
        shifts = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    bases = []
    for shift in shifts:
        basis = np.zeros((p, p))
        if geometry.kind is GeometryKind.ONE_D:
            (k,) = shift
            for row in range(p):
                col = row - k
                if padding is Padding.CIRCULAR:
                    basis[row, col % p] = 1.0
                elif 0 <= col < p:
                    basis[row, col] = 1.0
        else:
            s = geometry.side
            k_row, k_col = shift
            for a in range(s):
                for b in range(s):
                    a2, b2 = a - k_row, b - k_col
                    if padding is Padding.CIRCULAR:
                        basis[a * s + b, (a2 % s) * s + (b2 % s)] = 1.0
                    elif 0 <= a2 < s and 0 <= b2 < s:
                        basis[a * s + b, a2 * s + b2] = 1.0
        bases.append(basis)
    return sum(basis.T @ matrix @ basis for basis in bases)


class TestAcceptance:
    def test_01_conv_operator_matches_basis_sum(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        geometries = [ConvGeometry(GeometryKind.ONE_D, p) for p in range(3, 11)]
        geometries += [ConvGeometry(GeometryKind.TWO_D, s * s) for s in (2, 3, 4)]
        for geometry in geometries:
            for padding in (Padding.ZERO, Padding.CIRCULAR):
                for _ in range(100):
                    matrix = random_symmetric(rng, geometry.p)
                    got = apply_conv_operator(matrix, geometry, padding)
                    want = loop_basis_apply(matrix, geometry, padding)
                    worst = max(worst, float(np.max(np.abs(got - want))))
        elapsed = time.perf_counter() - start
        verdict(
            1, "conv operator equals basis-sum oracle",
            worst <= 1e-12 and elapsed < 5.0,
            f"max abs diff {worst:.2e}, {elapsed:.1f}s",
        )

    def test_02_tridiagonal_spectrum_closed_form(self):
        worst = 0.0
        for dim in range(1, 51):
            grid = np.arange(1, dim + 1)
            closed_form = np.sort(1.0 + 2.0 * np.cos(np.pi * grid / (dim + 1)))[::-1]
            tridiagonal = np.eye(dim) + np.eye(dim, k=1) + np.eye(dim, k=-1)
            numeric = np.sort(np.linalg.eigvalsh(tridiagonal))[::-1]
            worst = max(worst, float(np.max(np.abs(closed_form - numeric))))
        verdict(
            2, "tridiagonal all-ones spectrum matches closed form",
            worst <= 1e-10, f"max abs diff {worst:.2e}",
        )

    def test_03_depth_limits(self):
        start = time.perf_counter()
        details = []
        ok = True

        for p in (5, 10):
            geometry = ConvGeometry(GeometryKind.ONE_D, p)
            for architecture in Architecture:
                limit = dense(limit_transform(geometry, architecture))
                matrix = unit_start(geometry, architecture)
                iterations = 0
                while (
                    np.linalg.norm(matrix - limit) > 1e-8
                    and iterations < 100_000
                ):
                    matrix = apply_conv_operator(matrix, geometry, Padding.ZERO)
                    matrix /= np.linalg.norm(matrix)
                    iterations += 1
                converged = np.linalg.norm(matrix - limit) <= 1e-8
                ok = ok and converged
                details.append(f"1d p={p} {architecture.value}@{iterations}")

        geometry = ConvGeometry(GeometryKind.TWO_D, 28 * 28)
        limit_diag = np.diag(dense(limit_transform(geometry, Architecture.FLATTENING)))
        unit_limit_diag = limit_diag / np.linalg.norm(limit_diag)
        for architecture in Architecture:
            matrix = unit_start(geometry, architecture)
            iterations = 0
            while iterations < 4000:
                diag = np.diag(matrix)
                if architecture is Architecture.FLATTENING:
                    distance = float(np.linalg.norm(diag - limit_diag))
                else:
                    unit = diag / np.linalg.norm(diag)
                    distance = float(np.linalg.norm(unit - unit_limit_diag))
                if distance <= 1e-8:
                    break
                matrix = apply_conv_operator(matrix, geometry, Padding.ZERO)
                matrix /= np.linalg.norm(matrix)
                iterations += 1
            ok = ok and distance <= 1e-8
            details.append(f"2d s=28 {architecture.value}@{iterations}")

        for geometry in (
            ConvGeometry(GeometryKind.ONE_D, 6),
            ConvGeometry(GeometryKind.TWO_D, 9),
        ):
            for architecture in Architecture:
                snapshots = feature_transforms(
                    [0, 1, 2, 3, 5, 8, 13, 40], geometry, Padding.CIRCULAR,
                    architecture,
                )
                base = dense(snapshots[0])
                drift = max(
                    float(np.linalg.norm(dense(ft) - base))
                    for ft in snapshots
                )
                ok = ok and drift <= 1e-12

        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 60.0
        verdict(3, "depth iterates reach closed-form limits",
                ok, f"{'; '.join(details)}; {elapsed:.1f}s")

    def test_04_variance_floor_attainment(self):
        start = time.perf_counter()
        rng = np.random.default_rng(401)
        p, n, noise = 20, 10, 0.01
        covariance = random_psd(rng, p)
        problem = RegressionProblem(covariance, random_unit_vector(rng, p), noise, n)
        bound = variance_lower_bound(noise, n, p)
        matched = variance_mc([FeatureTransform(np.linalg.inv(covariance))], problem,
                              trials=2000, seed=402)
        attained = abs(matched.mean[0] - bound) <= 3.0 * matched.std_error[0]

        exceeded = []
        for k in range(5):
            perturbed = np.linalg.inv(covariance) + 0.5 * random_psd(rng, p)
            estimate = variance_mc([FeatureTransform(perturbed)], problem,
                                   trials=2000, seed=403 + k)
            exceeded.append(estimate.mean[0] - bound > 3.0 * estimate.std_error[0])
        elapsed = time.perf_counter() - start
        verdict(
            4, "noise variance attains its floor only at the inverse covariance",
            attained and all(exceeded) and elapsed < 120.0,
            f"|gap|={abs(matched.mean[0] - bound):.2e} vs 3se={3 * matched.std_error[0]:.2e},"
            f" {sum(exceeded)}/5 perturbed exceed, {elapsed:.1f}s",
        )

    def test_05_rank_one_update_identity(self):
        rng = np.random.default_rng(501)
        p, n = 12, 6
        worst = 0.0
        for _ in range(50):
            transform = random_psd(rng, p)
            coef = rng.standard_normal(p)
            x_train = rng.standard_normal((n, p))
            problem = RegressionProblem(random_psd(rng, p), coef, 0.0, n)
            base = bias_conditional(FeatureTransform(transform), problem, x_train)
            updated = bias_conditional(
                FeatureTransform(transform + np.outer(coef, coef)), problem, x_train
            )
            kernel = x_train @ transform @ x_train.T
            u = x_train @ coef
            z = float(u @ np.linalg.solve(kernel, u))
            predicted = base / (1.0 + z) ** 2
            scale = max(abs(updated), abs(predicted))
            worst = max(worst, abs(updated - predicted) / scale)
        verdict(
            5, "rank-one coef spike rescales conditional bias exactly",
            worst <= 1e-8, f"max rel err {worst:.2e}",
        )

    def test_06_variance_dips_at_matched_depth(self, tmp_path):
        start = time.perf_counter()
        config = tmp_path / "matched.cfg"
        config.write_text(
            "experiment = sweep\n"
            "p = 20\nn = 10\npadding = zero\narchitecture = pooling\n"
            "depths = 10,25,40,50,65,90\n"
            "sigma_source = inverse_theta\nsigma_depth = 50\n"
            "noise_var = 0.01\n"
            "trials_bias = 300\ntrials_var = 30000\ntrials_risk = 300\n"
            "risk_test_points = 128\nseed = 0\n"
            f"outdir = {tmp_path / 'out'}\n"
        )
        records = run_depth_sweep(parse_config(config))
        by_var = min(records, key=lambda r: r.var_mean)
        center = next(r for r in records if r.depth == 50)
        neighbors_clear = all(
            r.var_mean - center.var_mean > 3.0 * (r.var_se + center.var_se)
            for r in records
            if r.depth in (40, 65)
        )
        elapsed = time.perf_counter() - start
        verdict(
            6, "variance dips exactly at the covariance-matched depth",
            by_var.depth == 50 and neighbors_clear and elapsed < 300.0,
            f"argmin D={by_var.depth}, {elapsed:.1f}s",
        )

    def test_07_bias_dips_at_spike_center(self, tmp_path):
        config = tmp_path / "spike.cfg"
        config.write_text(
            "experiment = sweep\n"
            "theta_family = aligned_spike\nfamily_center = 10\n"
            "p = 20\nn = 10\ndepths = 2,5,10,20,40\n"
            "trials_bias = 200\ntrials_var = 50\ntrials_risk = 50\n"
            "risk_test_points = 64\nseed = 0\n"
            f"outdir = {tmp_path / 'out'}\n"
        )
        records = run_depth_sweep(parse_config(config))
        depths = [r.depth for r in records]
        biases = [r.bias_mean for r in records]
        argmin_depth = depths[int(np.argmin(biases))]
        center_index = depths.index(10)
        left = biases[: center_index + 1]
        right = biases[center_index:]
        u_shaped = all(a > b for a, b in zip(left, left[1:])) and all(
            b > a for a, b in zip(right, right[1:])
        )
        verdict(
            7, "bias dips exactly at the aligned-spike center depth",
            argmin_depth == 10 and biases[center_index] < 1e-20 and u_shaped,
            f"argmin D={argmin_depth}, center bias {biases[center_index]:.1e}",
        )

    def test_08_risk_decomposes_into_bias_plus_variance(self):
        rng = np.random.default_rng(801)
        failures = 0
        worst_ratio = 0.0
        for k in range(10):
            p = int(rng.integers(8, 17))
            n = int(rng.integers(2, p - 1))
            covariance = random_psd(rng, p)
            problem = RegressionProblem(
                covariance, random_unit_vector(rng, p), float(rng.uniform(0.0, 0.3)), n
            )
            transform = FeatureTransform(random_psd(rng, p))
            bias = bias_mc([transform], problem, trials=400, seed=810 + k)
            variance = variance_mc([transform], problem, trials=400, seed=830 + k)
            risk = excess_risk_mc([transform], problem, trials=400, seed=850 + k,
                                  test_points=256)
            gap = abs(risk.mean[0] - (bias.mean[0] + variance.mean[0]))
            margin = 3.0 * (bias.std_error[0] + variance.std_error[0] + risk.std_error[0])
            worst_ratio = max(worst_ratio, gap / margin if margin > 0 else 0.0)
            failures += gap > margin
        verdict(
            8, "excess risk equals bias plus variance within noise",
            failures == 0, f"worst gap/margin {worst_ratio:.2f}",
        )

    def test_09_digit_regression_loss_is_u_shaped(self, tmp_path):
        start = time.perf_counter()
        env_images = os.environ.get("CONVKERNEL_MNIST_IMAGES")
        env_labels = os.environ.get("CONVKERNEL_MNIST_LABELS")
        if env_images and env_labels:
            images, labels = Path(env_images), Path(env_labels)
        else:
            images, labels = make_synthetic_idx(tmp_path, count_per_class=60, seed=7)
        config = tmp_path / "digits.cfg"
        config.write_text(
            f"experiment = mnist\nimages = {images}\nlabels = {labels}\n"
            "count_per_class = 50\nn = 20\ntrials = 20\n"
            "depths = 0,1,2,4,8,16,32,64,128,256,512,1024,2048,4096\n"
            "padding = zero\narchitecture = pooling\nseed = 0\n"
            f"outdir = {tmp_path / 'out'}\n"
        )
        records = run_mnist_experiment(parse_config(config))
        losses = np.array([r.loss_mean for r in records])
        ses = np.array([r.loss_se for r in records])
        mis = np.array([r.misalignment for r in records])
        k = int(np.argmin(losses))
        m = int(np.argmin(mis))
        interior = 0 < k < len(records) - 1
        endpoints_clear = all(
            losses[end] - losses[k] > 3.0 * (ses[end] + ses[k])
            for end in (0, len(records) - 1)
        )
        elapsed = time.perf_counter() - start
        verdict(
            9, "digit regression loss is U-shaped and tracks misalignment",
            interior and endpoints_clear and abs(k - m) <= 1 and elapsed < 600.0,
            f"loss argmin D={records[k].depth}, misalignment argmin D={records[m].depth},"
            f" {elapsed:.1f}s",
        )

    def test_10_reruns_are_byte_identical(self, tmp_path):
        matches = []

        def rerun(kind, body, outputs):
            blobs = []
            for name in ("a", "b"):
                outdir = tmp_path / f"{kind}_{name}"
                config = tmp_path / f"{kind}_{name}.cfg"
                config.write_text(body + f"outdir = {outdir}\n")
                cfg = parse_config(config)
                runner = {
                    "sweep": run_depth_sweep,
                    "eigvec": run_eigvec_gallery,
                    "mnist": run_mnist_experiment,
                }[kind]
                runner(cfg)
                blobs.append([(outdir / f).read_bytes() for f in outputs])
            matches.append(blobs[0] == blobs[1])

        rerun(
            "sweep",
            "experiment = sweep\ntheta_family = aligned_spike\nfamily_center = 10\n"
            "p = 20\nn = 10\ndepths = 2,5,10,20,40\n"
            "trials_bias = 200\ntrials_var = 50\ntrials_risk = 50\n"
            "risk_test_points = 64\nseed = 0\n",
            ["sweep.csv", "sweep_meta.json"],
        )
        rerun(
            "eigvec",
            "experiment = eigvec\np = 49\ndepths = 0,2,8\n",
            ["eigvec_D0.pgm", "eigvec_D2.pgm", "eigvec_D8.pgm", "gallery.csv"],
        )
        images, labels = make_synthetic_idx(tmp_path, count_per_class=20, seed=7)
        rerun(
            "mnist",
            f"experiment = mnist\nimages = {images}\nlabels = {labels}\n"
            "count_per_class = 15\nn = 6\ntrials = 3\ndepths = 0,4,16\nseed = 0\n",
            ["mnist.csv", "mnist_meta.json"],
        )
        verdict(
            10, "identical configs reproduce byte-identical outputs",
            all(matches), f"{sum(matches)}/3 experiments matched",
        )
