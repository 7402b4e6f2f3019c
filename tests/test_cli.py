"""CLI behavior: exit codes, error channels, and output determinism."""

import subprocess
import sys

import pytest

from _digits import make_synthetic_idx
from convkernel.cli import main


@pytest.fixture(scope="module")
def idx_paths(tmp_path_factory):
    return make_synthetic_idx(tmp_path_factory.mktemp("idx"), count_per_class=20)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL_SWEEP = (
    "experiment = sweep\np = 8\nn = 4\ndepths = 1,3\n"
    "trials_bias = 10\ntrials_var = 10\ntrials_risk = 10\nrisk_test_points = 16\n"
)


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_SWEEP + f"outdir = {tmp_path}\n")
        assert main(["validate", str(config)]) == 0
        out = capsys.readouterr().out
        assert "config OK: sweep experiment" in out

    def test_config_error_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, "experiment = sweep\npadding = reflective\n")
        assert main(["validate", str(config)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "unknown padding" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_exits_1_before_any_output(self, tmp_path, capsys, value):
        outdir = tmp_path / "out"
        config = write_config(
            tmp_path, SMALL_SWEEP + f"noise_var = {value}\noutdir = {outdir}\n"
        )
        assert main(["sweep", str(config)]) == 1
        assert ":9: noise_var must be finite" in capsys.readouterr().err
        assert not outdir.exists()

    def test_orphan_file_key_exits_1(self, tmp_path, capsys):
        beta = write_config(tmp_path, "1,2\n", name="beta.csv")
        config = write_config(tmp_path, SMALL_SWEEP + f"beta_file = {beta}\n")
        assert main(["validate", str(config)]) == 1
        captured = capsys.readouterr()
        assert ":9: beta_file is set but beta_source is synthetic" in captured.err
        assert "config OK" not in captured.out

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.cfg")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestSubcommandDispatch:
    def test_mismatched_experiment_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_SWEEP + f"outdir = {tmp_path}\n")
        assert main(["eigvec", str(config)]) == 1
        err = capsys.readouterr().err
        assert "describes a sweep experiment" in err
        assert "eigvec subcommand" in err

    def test_sweep_writes_and_prints_outputs(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        config = write_config(tmp_path, SMALL_SWEEP + f"outdir = {outdir}\n")
        assert main(["sweep", str(config)]) == 0
        out = capsys.readouterr().out
        assert str(outdir / "sweep.csv") in out
        assert str(outdir / "sweep_meta.json") in out
        assert (outdir / "sweep.csv").is_file()

    def test_eigvec_writes_images(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        config = write_config(
            tmp_path, f"experiment = eigvec\np = 16\ndepths = 0,2\noutdir = {outdir}\n"
        )
        assert main(["eigvec", str(config)]) == 0
        out = capsys.readouterr().out
        assert str(outdir / "eigvec_D2.pgm") in out
        assert (outdir / "gallery.csv").is_file()

    def test_mnist_runs(self, tmp_path, idx_paths, capsys):
        images, labels = idx_paths
        outdir = tmp_path / "out"
        config = write_config(
            tmp_path,
            f"experiment = mnist\nimages = {images}\nlabels = {labels}\n"
            "count_per_class = 15\nn = 5\ntrials = 2\ndepths = 0,2\n"
            f"outdir = {outdir}\n",
        )
        assert main(["mnist", str(config)]) == 0
        capsys.readouterr()
        assert (outdir / "mnist.csv").is_file()
        assert (outdir / "mnist_meta.json").is_file()


class TestRuntimeErrors:
    def test_corrupt_idx_exits_2(self, tmp_path, capsys):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        images.write_bytes(b"junk")
        labels.write_bytes(b"junk")
        config = write_config(
            tmp_path,
            f"experiment = mnist\nimages = {images}\nlabels = {labels}\n"
            f"count_per_class = 2\nn = 2\ntrials = 1\ndepths = 0\noutdir = {tmp_path}\n",
        )
        assert main(["mnist", str(config)]) == 2
        assert "runtime error" in capsys.readouterr().err

    def test_bad_covariance_file_exits_2(self, tmp_path, capsys):
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("1,0\n0,1\n")
        config = write_config(
            tmp_path,
            SMALL_SWEEP
            + f"sigma_source = file\nsigma_file = {sigma}\noutdir = {tmp_path}\n",
        )
        assert main(["sweep", str(config)]) == 2
        err = capsys.readouterr().err
        assert "runtime error" in err
        assert "expected (8, 8)" in err


class TestDeterminism:
    def test_cli_rerun_byte_identical(self, tmp_path, capsys):
        blobs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            config = write_config(
                tmp_path, SMALL_SWEEP + f"outdir = {outdir}\n", name=f"{name}.cfg"
            )
            assert main(["sweep", str(config)]) == 0
            capsys.readouterr()
            blobs.append((outdir / "sweep.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        config = write_config(tmp_path, SMALL_SWEEP + f"outdir = {tmp_path}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "convkernel.cli", "validate", str(config)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "config OK" in proc.stdout
