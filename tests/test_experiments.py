"""Experiment runners: sweep records, gallery images, digit regression."""

import json
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import convkernel.experiments
import convkernel.kernels
import convkernel.regression
from _digits import make_synthetic_idx
from _oracles import dense, save_matrix_csv
from convkernel.cli import main
from convkernel.config import NOISE_VAR_MAX, EigvecConfig, parse_config
from convkernel.experiments import (
    _meta_json,
    _resolve_covariance,
    participation_ratio,
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
    _start,
    feature_transforms,
    leading_eigenvector,
    symmetric_spectrum,
)
from convkernel.rng import derive_seed


def sweep_config(tmp_path, body, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text("experiment = sweep\n" + body)
    return parse_config(path)


FAST_TRIALS = (
    "trials_bias = 25\ntrials_var = 25\ntrials_risk = 25\nrisk_test_points = 32\n"
)


class TestDepthSweep:
    def test_aligned_spike_bias_vanishes_at_center(self, tmp_path):
        cfg = sweep_config(
            tmp_path,
            "theta_family = aligned_spike\nfamily_center = 10\n"
            "p = 20\nn = 10\ndepths = 2,5,10,20,40\n"
            f"{FAST_TRIALS}outdir = {tmp_path / 'out'}\n",
        )
        records = run_depth_sweep(cfg)
        by_depth = {r.depth: r for r in records}
        center = by_depth[10]
        assert center.bias_mean < 1e-20
        assert center.bias_se < 1e-20
        assert center.misalignment < 1e-12
        others = [r.bias_mean for r in records if r.depth != 10]
        assert min(others) > 1e-3
        depths = [r.depth for r in records]
        biases = [r.bias_mean for r in records]
        assert depths[int(np.argmin(biases))] == 10
        left = biases[: depths.index(10) + 1]
        right = biases[depths.index(10):]
        assert all(a > b for a, b in zip(left, left[1:]))
        assert all(b > a for a, b in zip(right, right[1:]))

    def test_circular_flattening_columns_constant(self, tmp_path):
        cfg = sweep_config(
            tmp_path,
            "padding = circular\narchitecture = flattening\n"
            "p = 4\nn = 2\ndepths = 0,3,9\n"
            f"{FAST_TRIALS}outdir = {tmp_path / 'out'}\n",
        )
        records = run_depth_sweep(cfg)
        first = records[0]
        for r in records[1:]:
            assert r.bias_mean == first.bias_mean
            assert r.var_mean == first.var_mean
            assert r.risk_mean == first.risk_mean
            assert r.misalignment == first.misalignment

    def test_every_row_satisfies_decomposition(self, tmp_path):
        cfg = sweep_config(
            tmp_path,
            "p = 12\nn = 6\ndepths = 1,4,16\n"
            "trials_bias = 150\ntrials_var = 150\ntrials_risk = 150\n"
            f"outdir = {tmp_path / 'out'}\n",
        )
        for r in run_depth_sweep(cfg):
            combined = 3.0 * (r.bias_se + r.var_se + r.risk_se)
            assert abs(r.risk_mean - (r.bias_mean + r.var_mean)) <= combined

    def test_csv_roundtrips_values(self, tmp_path):
        cfg = sweep_config(
            tmp_path,
            f"p = 10\nn = 5\ndepths = 2,7\n{FAST_TRIALS}outdir = {tmp_path / 'out'}\n",
        )
        records = run_depth_sweep(cfg)
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "depth,bias_mean,bias_se,var_mean,var_se,risk_mean,risk_se,misalignment"
        )
        assert len(lines) == 1 + len(records)
        for line, record in zip(lines[1:], records):
            cells = line.split(",")
            assert int(cells[0]) == record.depth
            assert float(cells[1]) == record.bias_mean
            assert float(cells[4]) == record.var_se
            assert float(cells[7]) == record.misalignment

    def test_rerun_is_byte_identical(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            cfg = sweep_config(
                tmp_path,
                "sigma_source = inverse_theta\nsigma_depth = 4\n"
                f"p = 10\nn = 5\ndepths = 1,4,9\n{FAST_TRIALS}"
                f"outdir = {tmp_path / name}\n",
                name=f"{name}.cfg",
            )
            run_depth_sweep(cfg)
            outputs.append(
                (
                    (tmp_path / name / "sweep.csv").read_bytes(),
                    (tmp_path / name / "sweep_meta.json").read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_builds_one_transform_at_a_time(self, tmp_path, monkeypatch):
        built = []
        original = convkernel.experiments.feature_transforms

        def recording(depths, *args):
            built.append(list(depths))
            return original(depths, *args)

        monkeypatch.setattr(convkernel.experiments, "feature_transforms", recording)
        cfg = sweep_config(
            tmp_path,
            "sigma_source = inverse_theta\nsigma_depth = 4\n"
            f"p = 10\nn = 5\ndepths = 1,4,9\n{FAST_TRIALS}outdir = {tmp_path / 'out'}\n",
        )
        run_depth_sweep(cfg)
        assert built == [[4], [1], [4], [9]]

    def test_draws_each_trial_once_per_depth_group(self, tmp_path, monkeypatch):
        drawn = []
        original = convkernel.regression.trial_chunks

        def counting(seed, trials, shapes):
            for start, stacks in original(seed, trials, shapes):
                drawn.append(stacks[0].shape[0])
                yield start, stacks

        monkeypatch.setattr(convkernel.regression, "trial_chunks", counting)
        outputs = []
        # The default budget holds all three p = 10 depths in one group; a
        # budget of one byte makes each depth a group of one.
        for budget, groups in ((convkernel.experiments.DEPTH_GROUP_BUDGET_BYTES, 1), (1, 3)):
            monkeypatch.setattr(convkernel.experiments, "DEPTH_GROUP_BUDGET_BYTES", budget)
            drawn.clear()
            outdir = tmp_path / f"groups{groups}"
            cfg = sweep_config(
                tmp_path,
                "sigma_source = inverse_theta\nsigma_depth = 4\np = 10\nn = 5\n"
                "depths = 1,4,9\ntrials_bias = 25\ntrials_var = 30\ntrials_risk = 35\n"
                f"risk_test_points = 32\noutdir = {outdir}\n",
            )
            run_depth_sweep(cfg)
            assert sum(drawn) == groups * (25 + 30 + 35)
            outputs.append([(outdir / name).read_bytes()
                            for name in ("sweep.csv", "sweep_meta.json")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("p, depths, trials, budget", [
        # At p = 400 a depth holds two 1.28 MB arrays, so twelve depths
        # (30.7 MB) exceed the 16 MB budget and run in two groups.
        pytest.param(400, 12, 2, None, id="large p"),
        # At p = 6 a depth's 2000 per-trial values (16 KB) outweigh its two
        # p x p arrays (576 B), so forty depths (663 KB) exceed a 64 KB
        # budget and run in groups of three.
        pytest.param(6, 40, 2000, 64 * 1024, id="many trials"),
    ])
    def test_depth_groups_hold_at_most_the_budget(self, tmp_path, monkeypatch, p, depths,
                                                  trials, budget):
        # A group adds at most the budget to one depth's working set.
        # Circular padding keeps the transforms cheap to build.
        if budget is not None:
            monkeypatch.setattr(convkernel.experiments, "DEPTH_GROUP_BUDGET_BYTES", budget)
        budget = convkernel.experiments.DEPTH_GROUP_BUDGET_BYTES

        def peak_bytes(depth_list, name):
            cfg = sweep_config(
                tmp_path,
                "padding = circular\narchitecture = flattening\n"
                f"p = {p}\nn = 3\ndepths = {depth_list}\ntrials_bias = 2\n"
                f"trials_var = {trials}\ntrials_risk = 2\nrisk_test_points = 8\n"
                f"outdir = {tmp_path / name}\n",
                name=f"{name}.cfg",
            )
            tracemalloc.start()
            try:
                run_depth_sweep(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert depths * 8 * (2 * p * p + trials) > budget
        one = peak_bytes("5", "one")
        assert peak_bytes(",".join(map(str, range(1, depths + 1))), "all") <= budget + one

    @pytest.mark.parametrize("arch", ["flattening", "pooling"])
    def test_never_calls_the_stencil(self, tmp_path, monkeypatch, arch):
        # Every zero-padding depth of a sweep, 1 and 2 included, and its
        # inverse_theta covariance are closed form.
        def stencil(*args):
            raise AssertionError("apply_conv_operator called")

        monkeypatch.setattr(convkernel.kernels, "apply_conv_operator", stencil)
        cfg = sweep_config(
            tmp_path,
            f"geometry = 2d\np = 16\nn = 5\narchitecture = {arch}\n"
            "sigma_source = inverse_theta\nsigma_depth = 1\n"
            f"depths = 1,2\n{FAST_TRIALS}outdir = {tmp_path / 'out'}\n",
        )
        assert [r.depth for r in run_depth_sweep(cfg)] == [1, 2]

    def test_meta_records_ridge_for_inverse_sigma(self, tmp_path):
        cfg = sweep_config(
            tmp_path,
            "sigma_source = inverse_theta\nsigma_depth = 3\n"
            f"p = 10\nn = 5\ndepths = 3\n{FAST_TRIALS}outdir = {tmp_path / 'out'}\n",
        )
        run_depth_sweep(cfg)
        meta = (tmp_path / "out" / "sweep_meta.json").read_text()
        assert '"ridge_epsilon"' in meta
        assert "time" not in meta.lower()

    def test_two_d_inverse_theta_inverts_the_ridged_transform(self, tmp_path):
        cfg = sweep_config(
            tmp_path,
            "geometry = 2d\np = 16\nn = 5\nsigma_source = inverse_theta\nsigma_depth = 4\n"
            f"depths = 1,4\n{FAST_TRIALS}outdir = {tmp_path / 'out'}\n",
        )
        covariance, epsilon = _resolve_covariance(cfg, np.ones(16))
        (theta,) = feature_transforms([4], cfg.geometry, cfg.padding, cfg.architecture)
        assert theta.power == 2
        expected = np.linalg.inv(dense(theta) + epsilon * np.eye(16))
        assert_allclose(covariance, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))
        run_depth_sweep(cfg)
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert np.all(np.isfinite([float(cell) for row in rows for cell in row.split(",")]))
        meta = json.loads((tmp_path / "out" / "sweep_meta.json").read_text())
        assert meta["ridge_epsilon"] == epsilon > 0.0

    def test_meta_is_resolved_config_plus_derived_fields(self, tmp_path):
        cfg = sweep_config(
            tmp_path, f"p = 10\nn = 5\ndepths = 3\n{FAST_TRIALS}outdir = {tmp_path}\n"
        )
        run_depth_sweep(cfg)
        meta = json.loads((tmp_path / "sweep_meta.json").read_text())
        config_keys = {f.name for f in fields(cfg)} - {"outdir"}
        assert set(meta) == config_keys | {"derived_seeds", "ridge_epsilon"}
        assert meta["geometry"] == {"kind": "1d", "p": 10}
        assert (meta["padding"], meta["n_train"], meta["depths"]) == ("zero", 5, [3])
        assert (meta["trials_bias"], meta["risk_test_points"]) == (25, 32)
        assert meta["sigma_file"] is None

    def test_meta_rejects_non_finite_values(self, tmp_path):
        cfg = sweep_config(tmp_path, "")
        with pytest.raises(ValueError, match="JSON compliant"):
            _meta_json(cfg, ridge_epsilon=float("nan"))

    def test_matrix_and_vector_files(self, tmp_path):
        rng = np.random.default_rng(3)
        basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        covariance = basis @ np.diag(rng.uniform(0.5, 2.0, 6)) @ basis.T
        covariance = (covariance + covariance.T) / 2
        coef = rng.standard_normal(6)
        save_matrix_csv(covariance, tmp_path / "sigma.csv")
        save_matrix_csv(coef.reshape(1, -1), tmp_path / "beta.csv")
        cfg = sweep_config(
            tmp_path,
            f"sigma_source = file\nsigma_file = {tmp_path / 'sigma.csv'}\n"
            f"beta_source = file\nbeta_file = {tmp_path / 'beta.csv'}\n"
            f"p = 6\nn = 3\ndepths = 1,2\n{FAST_TRIALS}outdir = {tmp_path / 'out'}\n",
        )
        records = run_depth_sweep(cfg)
        assert all(np.isfinite(r.risk_mean) for r in records)

    def test_wrong_length_coef_file_rejected(self, tmp_path):
        save_matrix_csv(np.ones((1, 4)), tmp_path / "beta.csv")
        cfg = sweep_config(
            tmp_path,
            f"beta_source = file\nbeta_file = {tmp_path / 'beta.csv'}\n"
            f"p = 6\nn = 3\ndepths = 1\n{FAST_TRIALS}outdir = {tmp_path / 'out'}\n",
        )
        with pytest.raises(ValueError, match="length 4, expected 6"):
            run_depth_sweep(cfg)

    def test_zero_coef_file_rejected(self, tmp_path):
        save_matrix_csv(np.zeros((1, 6)), tmp_path / "beta.csv")
        cfg = sweep_config(
            tmp_path,
            f"beta_source = file\nbeta_file = {tmp_path / 'beta.csv'}\n"
            f"p = 6\nn = 3\ndepths = 1\n{FAST_TRIALS}outdir = {tmp_path / 'out'}\n",
        )
        with pytest.raises(ValueError, match="all zeros"):
            run_depth_sweep(cfg)

    def test_underflowing_coef_file_fails_before_any_transform(self, tmp_path, capsys,
                                                               monkeypatch):
        # Nonzero entries whose squares underflow: such a signal underflows in
        # the estimates too, so bias_mean would read exactly 0 at every depth.
        def no_transforms(*args):
            raise AssertionError("feature_transforms called")

        monkeypatch.setattr(convkernel.experiments, "feature_transforms", no_transforms)
        beta = tmp_path / "beta.csv"
        save_matrix_csv(np.full((1, 6), 1e-170), beta)
        outdir = tmp_path / "out"
        outdir.mkdir()
        config = tmp_path / "sweep.cfg"
        config.write_text(
            f"experiment = sweep\nbeta_source = file\nbeta_file = {beta}\n"
            f"p = 6\nn = 3\ndepths = 1,3\n{FAST_TRIALS}outdir = {outdir}\n"
        )
        assert main(["run", str(config)]) == 2
        assert f"coefficient file {beta} is all zeros" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_wrong_shape_covariance_file_rejected(self, tmp_path):
        save_matrix_csv(np.eye(4), tmp_path / "sigma.csv")
        cfg = sweep_config(
            tmp_path,
            f"sigma_source = file\nsigma_file = {tmp_path / 'sigma.csv'}\n"
            f"p = 6\nn = 3\ndepths = 1\n{FAST_TRIALS}outdir = {tmp_path / 'out'}\n",
        )
        with pytest.raises(ValueError, match="expected \\(6, 6\\)"):
            run_depth_sweep(cfg)

    @pytest.mark.parametrize("source", ["sigma", "beta"])
    def test_non_finite_file_exits_2_and_writes_nothing(self, tmp_path, capsys, source):
        matrix = np.eye(6) if source == "sigma" else np.ones((1, 6))
        matrix[0, -1] = np.nan
        save_matrix_csv(matrix, tmp_path / "in.csv")
        outdir = tmp_path / "out"
        outdir.mkdir()
        config = tmp_path / "sweep.cfg"
        config.write_text(
            f"experiment = sweep\n{source}_source = file\n"
            f"{source}_file = {tmp_path / 'in.csv'}\n"
            f"p = 6\nn = 3\ndepths = 1\n{FAST_TRIALS}outdir = {outdir}\n"
        )
        assert main(["run", str(config)]) == 2
        assert "in.csv: row on line 1 is not finite" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_bad_covariance_file_fails_before_any_transform(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_transforms(*args):
            raise AssertionError("feature_transforms called")

        monkeypatch.setattr(convkernel.experiments, "feature_transforms", no_transforms)
        matrix = np.eye(6)
        matrix[0, -1] = np.nan
        save_matrix_csv(matrix, tmp_path / "sigma.csv")
        config = tmp_path / "sweep.cfg"
        config.write_text(
            f"experiment = sweep\nsigma_source = file\nsigma_file = {tmp_path / 'sigma.csv'}\n"
            f"p = 6\nn = 3\ndepths = 1\n{FAST_TRIALS}outdir = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(config)]) == 2
        assert "sigma.csv: row on line 1 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, signal", [(1e153, "8e+306"), (1e160, "inf")])
    def test_overflowing_estimates_exit_2_and_write_nothing(self, tmp_path, capsys,
                                                            monkeypatch, entry, signal):
        # A coefficient file passes validation, but its estimates would square
        # past the float range; it is refused before any transform is built.
        def no_transforms(*args):
            raise AssertionError("feature_transforms called")

        monkeypatch.setattr(convkernel.experiments, "feature_transforms", no_transforms)
        beta = tmp_path / "beta.csv"
        save_matrix_csv(np.full((1, 8), entry), beta)
        outdir = tmp_path / "out"
        outdir.mkdir()
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "experiment = sweep\np = 8\nn = 4\ndepths = 1,3\n"
            f"beta_source = file\nbeta_file = {beta}\n"
            "trials_bias = 5\ntrials_var = 5\ntrials_risk = 5\nrisk_test_points = 16\n"
            f"outdir = {outdir}\n"
        )
        assert main(["run", str(config)]) == 2
        assert (f"runtime error: signal variance {signal} exceeds 1e+100 (beta_file {beta})"
                in capsys.readouterr().err)
        assert list(outdir.iterdir()) == []

    def test_oversized_covariance_file_names_it(self, tmp_path):
        sigma = tmp_path / "sigma.csv"
        save_matrix_csv(1e120 * np.eye(6), sigma)
        cfg = sweep_config(
            tmp_path, f"sigma_source = file\nsigma_file = {sigma}\np = 6\nn = 3\n"
                      f"depths = 1\n{FAST_TRIALS}outdir = {tmp_path / 'out'}\n")
        with pytest.raises(ValueError, match=r"signal variance 1e\+120 exceeds 1e\+100 "
                                             r"\(sigma_file .*sigma\.csv\)"):
            run_depth_sweep(cfg)
        assert not (tmp_path / "out").exists()

    def test_non_finite_estimate_writes_no_csv(self, tmp_path, monkeypatch):
        def infinite_bias(transforms, problem, trials, seed):
            result = convkernel.regression.bias_mc(transforms, problem, trials, seed)
            return replace(result, std_error=(float("inf"),) * len(transforms))

        monkeypatch.setattr(convkernel.experiments, "bias_mc", infinite_bias)
        cfg = sweep_config(tmp_path, f"p = 8\nn = 4\ndepths = 1,3\n{FAST_TRIALS}"
                                     f"outdir = {tmp_path / 'out'}\n")
        with pytest.raises(ValueError, match="sweep.csv: column bias_se has non-finite "
                                             "value inf"):
            run_depth_sweep(cfg)
        assert not (tmp_path / "out").exists()

    def test_largest_noise_var_writes_finite_outputs(self, tmp_path):
        # Runs under the suite's RuntimeWarning-as-error filter.
        outdir = tmp_path / "out"
        config = tmp_path / "sweep.cfg"
        config.write_text(
            f"experiment = sweep\np = 8\nn = 4\ndepths = 1,3\nnoise_var = {NOISE_VAR_MAX!r}\n"
            f"sigma_source = inverse_theta\n{FAST_TRIALS}outdir = {outdir}\n"
        )
        assert main(["run", str(config)]) == 0
        rows = np.genfromtxt(outdir / "sweep.csv", delimiter=",", names=True)
        assert all(np.isfinite(rows[name]).all() for name in rows.dtype.names)


class TestParticipationRatio:
    def test_uniform_vector_counts_everything(self):
        assert_allclose(participation_ratio(np.ones(16) / 4.0), 16.0)

    def test_single_spike_counts_one(self):
        vector = np.zeros(9)
        vector[4] = 2.0
        assert_allclose(participation_ratio(vector), 1.0)

    def test_scale_invariant(self):
        vector = np.arange(1.0, 6.0)
        assert_allclose(
            participation_ratio(vector), participation_ratio(3.7 * vector)
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            participation_ratio(np.zeros(4))


def release_checking(monkeypatch) -> list[weakref.ref]:
    """Patch experiments.feature_transforms to assert, on each call, that
    every transform it built before is already dead; returns their weak
    references."""
    refs = []
    original = convkernel.experiments.feature_transforms

    def checking(*args, **kwargs):
        assert all(ref() is None for ref in refs)
        built = original(*args, **kwargs)
        refs.extend(weakref.ref(ft) for ft in built)
        return built

    monkeypatch.setattr(convkernel.experiments, "feature_transforms", checking)
    return refs


def eigvec_config(tmp_path, body=""):
    path = tmp_path / "eig.cfg"
    path.write_text("experiment = eigvec\n" + body)
    return parse_config(path)


class TestEigvecGallery:
    def test_requires_2d_geometry(self, tmp_path):
        cfg = EigvecConfig(
            "eigvec",
            ConvGeometry(GeometryKind.ONE_D, 9),
            Padding.ZERO,
            Architecture.POOLING,
            (0, 1),
            tmp_path / "out",
        )
        with pytest.raises(ValueError, match="2-D"):
            run_eigvec_gallery(cfg)

    def test_writes_valid_pgm_files(self, tmp_path):
        cfg = eigvec_config(
            tmp_path, f"p = 25\ndepths = 0,2,8\noutdir = {tmp_path / 'out'}\n"
        )
        records = run_eigvec_gallery(cfg)
        assert [r.depth for r in records] == [0, 2, 8]
        for depth in (0, 2, 8):
            data = (tmp_path / "out" / f"eigvec_D{depth}.pgm").read_bytes()
            assert data.startswith(b"P5\n5 5\n255\n")
            assert len(data) == len(b"P5\n5 5\n255\n") + 25

    def test_non_finite_ratio_writes_no_image(self, tmp_path, monkeypatch):
        monkeypatch.setattr(convkernel.experiments, "participation_ratio",
                            lambda vector: float("nan"))
        cfg = eigvec_config(tmp_path, f"p = 16\ndepths = 0,4\noutdir = {tmp_path / 'out'}\n")
        with pytest.raises(ValueError, match="gallery.csv: column participation_ratio"):
            run_eigvec_gallery(cfg)
        assert not (tmp_path / "out").exists()

    def test_failure_mid_run_leaves_no_outdir(self, tmp_path, monkeypatch):
        solved = []

        def leading(ft):
            solved.append(ft.p)
            if len(solved) == 2:
                raise ValueError("second depth fails")
            return convkernel.kernels.leading_eigenvector(ft)

        monkeypatch.setattr(convkernel.experiments, "leading_eigenvector", leading)
        cfg = eigvec_config(tmp_path, f"p = 16\ndepths = 0,4,9\noutdir = {tmp_path / 'out'}\n")
        with pytest.raises(ValueError, match="second depth"):
            run_eigvec_gallery(cfg)
        assert solved == [16, 16] and not (tmp_path / "out").exists()

    def test_closed_form_depths_never_form_the_pixel_matrix(self, tmp_path):
        # One 784 x 784 float64 array is 4.9 MB; the 28 x 28 factors, their
        # eigenvectors and the images stay far below a quarter of that.
        cfg = eigvec_config(tmp_path,
                            f"p = 784\ndepths = 1,2,3,10,48\noutdir = {tmp_path / 'out'}\n")
        tracemalloc.start()
        try:
            run_eigvec_gallery(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 784 * 784 * 8 / 4

    def test_gallery_csv_matches_records(self, tmp_path):
        cfg = eigvec_config(
            tmp_path, f"p = 16\ndepths = 0,4\noutdir = {tmp_path / 'out'}\n"
        )
        records = run_eigvec_gallery(cfg)
        lines = (tmp_path / "out" / "gallery.csv").read_text().splitlines()
        assert lines[0] == "depth,participation_ratio"
        parsed = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in parsed] == [0, 4]
        for row, record in zip(parsed, records):
            assert float(row[1]) == record.participation_ratio

    def test_concentration_grows_with_depth(self, tmp_path):
        cfg = eigvec_config(
            tmp_path, f"p = 36\ndepths = 0,1,4,16,64\noutdir = {tmp_path / 'out'}\n"
        )
        ratios = [r.participation_ratio for r in run_eigvec_gallery(cfg)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_closed_form_depths_solve_only_the_side_factor(self, tmp_path, monkeypatch):
        # Only depth 0 is dense (p x p); every deeper one checks and solves
        # its s x s factor once.
        shapes = {"_check_symmetric_psd": [], "symmetric_spectrum": []}
        for name, seen in shapes.items():
            original = getattr(convkernel.kernels, name)
            monkeypatch.setattr(convkernel.kernels, name,
                                lambda matrix, *args, original=original, seen=seen:
                                seen.append(matrix.shape) or original(matrix, *args))
        cfg = eigvec_config(tmp_path, f"p = 25\ndepths = 0,1,2,3,9\noutdir = {tmp_path / 'out'}\n")
        run_eigvec_gallery(cfg)
        expected = [(25, 25)] + [(5, 5)] * 4
        assert shapes == {"_check_symmetric_psd": expected, "symmetric_spectrum": expected}

    def test_builds_every_depth_in_one_call(self, tmp_path, monkeypatch):
        # The closed-form depths share one batched pass, and each transform
        # is released once its leading vector is solved.
        calls, refs = [], []
        original = convkernel.experiments.feature_transforms
        monkeypatch.setattr(convkernel.experiments, "feature_transforms",
                            lambda depths, *args, **kwargs:
                            calls.append(list(depths)) or original(depths, *args, **kwargs))

        def leading(ft):
            assert all(ref() is None for ref in refs)
            refs.append(weakref.ref(ft))
            return leading_eigenvector(ft)

        monkeypatch.setattr(convkernel.experiments, "leading_eigenvector", leading)
        cfg = eigvec_config(tmp_path, f"p = 25\ndepths = 0,1,2,3,9\noutdir = {tmp_path / 'out'}\n")
        run_eigvec_gallery(cfg)
        assert calls == [[0, 1, 2, 3, 9]] and len(refs) == 5

    @pytest.mark.parametrize("arch", ["flattening", "pooling"])
    def test_never_calls_the_stencil(self, tmp_path, monkeypatch, arch):
        def stencil(*args):
            raise AssertionError("apply_conv_operator called")

        monkeypatch.setattr(convkernel.kernels, "apply_conv_operator", stencil)
        cfg = eigvec_config(tmp_path, f"p = 25\ndepths = 0,1,2,3,9\narchitecture = {arch}\n"
                                      f"outdir = {tmp_path / 'out'}\n")
        assert [r.depth for r in run_eigvec_gallery(cfg)] == [0, 1, 2, 3, 9]

    @pytest.mark.parametrize("arch", ["flattening", "pooling"])
    def test_depth_zero_is_the_default_transform_bit_for_bit(self, tmp_path, monkeypatch, arch):
        solved = []
        monkeypatch.setattr(convkernel.experiments, "leading_eigenvector",
                            lambda ft: solved.append(ft) or leading_eigenvector(ft))
        cfg = eigvec_config(tmp_path, f"p = 784\ndepths = 0\narchitecture = {arch}\n"
                                      f"outdir = {tmp_path / 'out'}\n")
        run_eigvec_gallery(cfg)
        # The dense start, whose eigh rounding noise eigvec_D0.pgm records.
        start = FeatureTransform(_start(784, cfg.architecture))
        assert solved[0].power == start.power
        assert_array_equal(solved[0].factor, start.factor)

    @pytest.mark.parametrize("arch", ["flattening", "pooling"])
    @pytest.mark.parametrize("side", [3, 5, 28])
    def test_closed_form_depths_match_the_dense_stencil_solve(self, tmp_path, monkeypatch,
                                                              side, arch):
        # Depths 1 and 2 are squares of their s x s factor in the gallery and
        # stencil iterates when named dense; both must give the same leading
        # vector.
        vectors = []
        monkeypatch.setattr(convkernel.experiments, "leading_eigenvector",
                            lambda ft: vectors.append(leading_eigenvector(ft)) or vectors[-1])
        cfg = eigvec_config(tmp_path, f"p = {side * side}\ndepths = 1,2\n"
                                      f"architecture = {arch}\noutdir = {tmp_path / 'out'}\n")
        records = run_eigvec_gallery(cfg)
        stencil = feature_transforms([1, 2], cfg.geometry, Padding.ZERO, cfg.architecture,
                                     dense_depths=frozenset({1, 2}))
        for record, vector, ft in zip(records, vectors, stencil):
            assert ft.power == 1 and ft.p == side * side
            matrix = dense(ft)
            eigenvalues, solved = symmetric_spectrum(matrix)
            # As in TestFactors: a tied top eigenvalue (flattening on all but
            # the smallest sides; at side 28, 676 vectors share it at depth 1
            # and 576 at depth 2) has no unique leading vector, so the
            # gallery's must be a unit vector of its eigenspace.  Under a
            # relative gap g a dense solve's vector is only fixed to eps / g.
            gap = (eigenvalues[0] - eigenvalues[1]) / eigenvalues[0]
            if gap < 1e-8:
                assert np.linalg.norm(vector) == pytest.approx(1.0, rel=0, abs=1e-12)
                assert np.linalg.norm(matrix @ vector - eigenvalues[0] * vector) <= 1e-12
                continue
            tol = 1e-12 + 10 * np.finfo(float).eps / gap
            assert_allclose(vector, solved, rtol=0, atol=tol)
            assert_allclose(record.participation_ratio, participation_ratio(solved),
                            rtol=tol, atol=0)

    def test_rerun_is_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            cfg = eigvec_config(
                tmp_path, f"p = 16\ndepths = 0,3\noutdir = {tmp_path / name}\n"
            )
            run_eigvec_gallery(cfg)
            blobs.append(
                [
                    (tmp_path / name / f).read_bytes()
                    for f in ("eigvec_D0.pgm", "eigvec_D3.pgm", "gallery.csv")
                ]
            )
        assert blobs[0] == blobs[1]


@pytest.fixture(scope="module")
def idx_paths(tmp_path_factory):
    return make_synthetic_idx(tmp_path_factory.mktemp("idx"), count_per_class=30)


class TestMnistExperiment:
    def mnist_cfg(self, tmp_path, idx_paths, body, name="mnist.cfg"):
        images, labels = idx_paths
        path = tmp_path / name
        path.write_text(
            f"experiment = mnist\nimages = {images}\nlabels = {labels}\n" + body
        )
        return parse_config(path)

    def test_smoke_records_and_outputs(self, tmp_path, idx_paths):
        cfg = self.mnist_cfg(
            tmp_path,
            idx_paths,
            "count_per_class = 25\nn = 8\ntrials = 3\ndepths = 0,8\n"
            f"outdir = {tmp_path / 'out'}\n",
        )
        records = run_mnist_experiment(cfg)
        assert [r.depth for r in records] == [0, 8]
        for r in records:
            assert np.isfinite(r.loss_mean)
            assert r.loss_se >= 0.0
            assert 0.0 <= r.misalignment <= 1.0
        lines = (tmp_path / "out" / "mnist.csv").read_text().splitlines()
        assert lines[0] == "depth,loss_mean,loss_se,misalignment"
        assert len(lines) == 3
        meta = (tmp_path / "out" / "mnist_meta.json").read_text()
        assert '"baseline_identity_loss_mean"' in meta
        assert '"side": 28' in meta
        meta = json.loads(meta)
        derived = {"side", "baseline_identity_loss_mean", "baseline_identity_loss_se"}
        assert set(meta) == {f.name for f in fields(cfg)} - {"outdir"} | derived
        assert (meta["images"], meta["n_train"], meta["shuffle"]) == (str(cfg.images), 8, False)

    def test_pooled_ink_carries_no_signal_at_depth_zero(self, tmp_path, idx_paths):
        cfg = self.mnist_cfg(
            tmp_path,
            idx_paths,
            "count_per_class = 25\nn = 8\ntrials = 4\ndepths = 0\n"
            f"outdir = {tmp_path / 'out'}\n",
        )
        record = run_mnist_experiment(cfg)[0]
        assert record.loss_mean > 0.5

    def test_checks_each_transform_for_psd_once(self, tmp_path, idx_paths, monkeypatch):
        checked = []
        original = convkernel.kernels._check_symmetric_psd

        def counting(matrix, what):
            checked.append((what, matrix.shape))
            return original(matrix, what)

        for module in (convkernel.kernels, convkernel.regression):
            monkeypatch.setattr(module, "_check_symmetric_psd", counting)
        cfg = self.mnist_cfg(
            tmp_path,
            idx_paths,
            "count_per_class = 20\nn = 6\ntrials = 5\ndepths = 0,2,4\n"
            f"outdir = {tmp_path / 'out'}\n",
        )
        run_mnist_experiment(cfg)
        # The 28 x 28 factor of depth 0, dense depth 2, then one 28 x 28
        # factor each for depth 4 and for the identity baseline.
        assert checked == ([("feature transform", (28, 28))]
                           + [("feature transform", (784, 784))]
                           + [("feature transform", (28, 28))] * 2)

    def test_deep_transforms_never_form_the_pixel_matrix(self, tmp_path, idx_paths,
                                                          monkeypatch):
        # The fit and misalignment act with the 28 x 28 factor on each axis,
        # and depth 0 is the square of the 28 x 28 start, not a stencil run.
        # One 784 x 784 float64 array is 4.9 MB; the run without one peaks
        # near 1 MB.
        built = []
        original = convkernel.experiments.feature_transforms

        def recording(*args, **kwargs):
            built.extend(original(*args, **kwargs))
            return built[-1:]

        def stencil(*args):
            raise AssertionError("apply_conv_operator called")

        monkeypatch.setattr(convkernel.experiments, "feature_transforms", recording)
        monkeypatch.setattr(convkernel.kernels, "apply_conv_operator", stencil)
        cfg = self.mnist_cfg(
            tmp_path,
            idx_paths,
            "count_per_class = 20\nn = 6\ntrials = 3\ndepths = 0,3,16\n"
            f"outdir = {tmp_path / 'out'}\n",
        )
        tracemalloc.start()
        try:
            run_mnist_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(built) == 3 and all(ft.power == 2 for ft in built)
        assert peak < 784 * 784 * 8 / 2

    @pytest.mark.parametrize("arch", ["flattening", "pooling"])
    def test_depth_zero_loss_matches_the_dense_start(self, tmp_path, idx_paths, monkeypatch,
                                                      arch):
        body = ("count_per_class = 20\nn = 6\ntrials = 4\ndepths = 0\n"
                f"architecture = {arch}\noutdir = {tmp_path / 'out'}\n")
        (factored,) = run_mnist_experiment(self.mnist_cfg(tmp_path, idx_paths, body))
        monkeypatch.setattr(convkernel.experiments, "feature_transforms",
                            lambda depths, geometry, padding, architecture, **kwargs:
                            [FeatureTransform(_start(geometry.p, architecture))])
        (start,) = run_mnist_experiment(self.mnist_cfg(tmp_path, idx_paths, body))
        assert_allclose([factored.loss_mean, factored.loss_se],
                        [start.loss_mean, start.loss_se], rtol=1e-12, atol=0)

    def test_builds_one_transform_at_a_time(self, tmp_path, idx_paths, monkeypatch):
        lengths = []
        original = convkernel.experiments.feature_transforms

        def recording(depths, *args, **kwargs):
            lengths.append(len(depths))
            return original(depths, *args, **kwargs)

        monkeypatch.setattr(convkernel.experiments, "feature_transforms", recording)
        cfg = self.mnist_cfg(
            tmp_path,
            idx_paths,
            "count_per_class = 20\nn = 6\ntrials = 2\ndepths = 0,2,4\n"
            f"outdir = {tmp_path / 'out'}\n",
        )
        run_mnist_experiment(cfg)
        assert lengths == [1, 1, 1]

    def test_releases_each_transform_before_the_next(self, tmp_path, idx_paths, monkeypatch):
        refs = release_checking(monkeypatch)
        cfg = self.mnist_cfg(
            tmp_path,
            idx_paths,
            "count_per_class = 20\nn = 6\ntrials = 2\ndepths = 0,2,4\n"
            f"outdir = {tmp_path / 'out'}\n",
        )
        run_mnist_experiment(cfg)
        assert len(refs) == 3

    def test_draws_each_subsample_once(self, tmp_path, idx_paths, monkeypatch):
        seeds = []
        original = convkernel.experiments.trial_rng

        def recording(seed, trial):
            seeds.append(seed)
            return original(seed, trial)

        monkeypatch.setattr(convkernel.experiments, "trial_rng", recording)
        cfg = self.mnist_cfg(
            tmp_path,
            idx_paths,
            "count_per_class = 20\nn = 6\ntrials = 5\ndepths = 0,2,4\nseed = 3\n"
            f"outdir = {tmp_path / 'out'}\n",
        )
        run_mnist_experiment(cfg)
        assert seeds.count(derive_seed(3, "subsample")) == 5

    def test_rerun_is_byte_identical(self, tmp_path, idx_paths):
        blobs = []
        for name in ("a", "b"):
            cfg = self.mnist_cfg(
                tmp_path,
                idx_paths,
                "count_per_class = 20\nn = 6\ntrials = 2\ndepths = 0,4\n"
                f"outdir = {tmp_path / name}\n",
                name=f"{name}.cfg",
            )
            run_mnist_experiment(cfg)
            blobs.append(
                (
                    (tmp_path / name / "mnist.csv").read_bytes(),
                    (tmp_path / name / "mnist_meta.json").read_bytes(),
                )
            )
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]
