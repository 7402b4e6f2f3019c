"""CLI behavior: exit codes, error channels, and output determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import convkernel.experiments
from _digits import make_synthetic_idx
from convkernel.cli import main
from convkernel.config import DEPTH_COUNT_MAX, SCHEMAS, parse_config
from convkernel.experiments import RUNNERS, output_files
from convkernel.fileio import write_pgm
from convkernel.rng import trial_rng


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
        assert main(["run", str(config)]) == 1
        assert ":9: noise_var must be finite" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("value", ["1e101", "1e308"])
    def test_oversized_noise_var_exits_1_before_any_output(self, tmp_path, capsys, value):
        outdir = tmp_path / "out"
        config = write_config(
            tmp_path, SMALL_SWEEP + f"noise_var = {value}\noutdir = {outdir}\n"
        )
        assert main(["run", str(config)]) == 1
        assert ":9: noise_var must be <= 1e+100" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_exits_1_before_any_output(self, tmp_path, capsys, seed):
        outdir = tmp_path / "out"
        config = write_config(tmp_path, SMALL_SWEEP + f"seed = {seed}\noutdir = {outdir}\n")
        assert main(["run", str(config)]) == 1
        assert ":9: seed must be" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("key", ["digit_pos", "digit_neg"])
    def test_digit_above_a_byte_exits_1_before_any_output(self, tmp_path, idx_paths,
                                                           capsys, key):
        images, labels = idx_paths
        outdir = tmp_path / "out"
        config = write_config(
            tmp_path, f"experiment = mnist\nimages = {images}\nlabels = {labels}\n"
                      f"count_per_class = 5\nn = 4\ndepths = 0\n{key} = 300\n"
                      f"outdir = {outdir}\n")
        assert main(["run", str(config)]) == 1
        assert f":7: {key} must be <= 255, got 300" in capsys.readouterr().err
        assert not outdir.exists()

    def test_orphan_file_key_exits_1(self, tmp_path, capsys):
        beta = write_config(tmp_path, "1,2\n", name="beta.csv")
        config = write_config(tmp_path, SMALL_SWEEP + f"beta_file = {beta}\n")
        assert main(["validate", str(config)]) == 1
        captured = capsys.readouterr()
        assert ":9: beta_file is set but beta_source is synthetic" in captured.err
        assert "config OK" not in captured.out

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"experiment = sweep\n# \xff\n")
        assert main(["validate", str(config)]) == 1
        assert f"config error: cannot read config file {config}" in capsys.readouterr().err

    def test_uncheckable_file_key_exits_1_naming_line_and_key(self, tmp_path, capsys):
        config = write_config(
            tmp_path, SMALL_SWEEP + f"beta_source = file\nbeta_file = {'b' * 300}\n"
        )
        assert main(["validate", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {config}:10: beta_file cannot be checked" in err
        assert "cannot read" not in err

    def test_outdir_under_a_file_exits_1_before_any_work(self, tmp_path, capsys):
        afile = write_config(tmp_path, "", name="afile")
        for outdir in (afile, afile / "sub"):
            config = write_config(tmp_path, SMALL_SWEEP + f"outdir = {outdir}\n")
            assert main(["run", str(config)]) == 1
            captured = capsys.readouterr()
            assert f"config error: {config}:9: outdir cannot be made: {afile}" in captured.err
            assert captured.out == ""

    def test_oversized_depth_exits_1_naming_line(self, tmp_path, capsys):
        config = write_config(tmp_path, f"experiment = sweep\ndepths = 1,1{'0' * 400}\n")
        assert main(["validate", str(config)]) == 1
        assert f"config error: {config}:2: depths must be" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [10**18, DEPTH_COUNT_MAX + 1],
                             ids=["10**18", "max+1"])
    def test_oversized_depth_count_exits_1_naming_its_line(self, tmp_path, capsys, count):
        config = write_config(tmp_path, "experiment = sweep\ndepth_min = 1\n"
                                        f"depth_max = 100\ndepth_count = {count}\n")
        assert main(["validate", str(config)]) == 1
        assert (f"config error: {config}:4: depth_count must be <= {DEPTH_COUNT_MAX}, "
                f"got {count}") in capsys.readouterr().err

    def test_largest_depth_count_validates(self, tmp_path, capsys):
        config = write_config(tmp_path, "experiment = sweep\ndepth_min = 1\n"
                                        f"depth_max = 100\ndepth_count = {DEPTH_COUNT_MAX}\n")
        assert main(["validate", str(config)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.cfg")]) == 1
        assert "cannot read" in capsys.readouterr().err


def assert_prints_exactly_its_outputs(out, outdir):
    """The paths a run prints are the files it left in outdir, one a line."""
    assert sorted(out.splitlines()) == sorted(str(path) for path in outdir.iterdir())


class TestSubcommandDispatch:
    def test_every_experiment_has_a_runner(self):
        assert set(RUNNERS) == set(SCHEMAS)

    @pytest.mark.parametrize("command", ["sweep", "eigvec", "mnist"])
    def test_experiment_subcommands_are_gone(self, tmp_path, capsys, command):
        # The config's experiment key alone picks the runner.
        outdir = tmp_path / "out"
        config = write_config(tmp_path, SMALL_SWEEP + f"outdir = {outdir}\n")
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(config)])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        assert not outdir.exists()

    def test_sweep_writes_and_prints_outputs(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        config = write_config(tmp_path, SMALL_SWEEP + f"outdir = {outdir}\n")
        assert main(["run", str(config)]) == 0
        out = capsys.readouterr().out
        assert str(outdir / "sweep.csv") in out
        assert str(outdir / "sweep_meta.json") in out
        assert (outdir / "sweep.csv").is_file()
        assert_prints_exactly_its_outputs(out, outdir)

    def test_eigvec_writes_images(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        config = write_config(
            tmp_path, f"experiment = eigvec\np = 16\ndepths = 0,2\noutdir = {outdir}\n"
        )
        assert main(["run", str(config)]) == 0
        out = capsys.readouterr().out
        assert str(outdir / "eigvec_D2.pgm") in out
        assert (outdir / "gallery.csv").is_file()
        assert_prints_exactly_its_outputs(out, outdir)

    def test_mnist_runs(self, tmp_path, idx_paths, capsys):
        images, labels = idx_paths
        outdir = tmp_path / "out"
        config = write_config(
            tmp_path,
            f"experiment = mnist\nimages = {images}\nlabels = {labels}\n"
            "count_per_class = 15\nn = 5\ntrials = 2\ndepths = 0,2\n"
            f"outdir = {outdir}\n",
        )
        assert main(["run", str(config)]) == 0
        out = capsys.readouterr().out
        assert (outdir / "mnist.csv").is_file()
        assert (outdir / "mnist_meta.json").is_file()
        assert_prints_exactly_its_outputs(out, outdir)


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
        assert main(["run", str(config)]) == 2
        assert "runtime error" in capsys.readouterr().err

    def test_impossible_mnist_trials_exit_2_before_any_draw(self, tmp_path, idx_paths,
                                                            capsys, monkeypatch):
        # numpy refuses a 10**20-trial stack without allocating it, so the run
        # fails before it draws a subsample instead of drawing without end.
        draws = []

        def counted_trial_rng(*args):
            draws.append(args)
            if len(draws) > 100:
                raise AssertionError("the run draws subsamples it cannot hold")
            return trial_rng(*args)

        monkeypatch.setattr(convkernel.experiments, "trial_rng", counted_trial_rng)
        images, labels = idx_paths
        outdir = tmp_path / "out"
        config = write_config(
            tmp_path, f"experiment = mnist\nimages = {images}\nlabels = {labels}\n"
                      f"count_per_class = 5\nn = 4\ndepths = 0\ntrials = {10**20}\n"
                      f"outdir = {outdir}\n")
        assert main(["run", str(config)]) == 2
        assert "runtime error: " in capsys.readouterr().err
        assert draws == []
        assert not outdir.exists()

    def test_bad_covariance_file_exits_2(self, tmp_path, capsys):
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("1,0\n0,1\n")
        config = write_config(
            tmp_path,
            SMALL_SWEEP
            + f"sigma_source = file\nsigma_file = {sigma}\noutdir = {tmp_path}\n",
        )
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert "runtime error" in err
        assert "expected (8, 8)" in err

    @pytest.mark.parametrize("source", ["sigma", "beta"])
    @pytest.mark.parametrize("content", [b"1,0\n3,abc\n", b"1,0\n0,\xff\n"],
                             ids=["non-number", "non-utf8"])
    def test_unreadable_csv_cell_exits_2_naming_the_file(self, tmp_path, capsys,
                                                         source, content):
        data = tmp_path / f"{source}.csv"
        data.write_bytes(content)
        config = write_config(
            tmp_path,
            SMALL_SWEEP
            + f"{source}_source = file\n{source}_file = {data}\noutdir = {tmp_path}\n",
        )
        assert main(["run", str(config)]) == 2
        assert f"runtime error: {data}: " in capsys.readouterr().err

    def test_failing_second_write_leaves_the_first_and_prints_no_path(self, tmp_path,
                                                                       capsys, monkeypatch):
        # The gallery writes one image per depth, then gallery.csv; a failure
        # between two writes leaves the files written before it.
        def write_once(path, image):
            if any(outdir.iterdir()):
                raise OSError("No space left on device")
            write_pgm(path, image)

        monkeypatch.setattr(convkernel.experiments, "write_pgm", write_once)
        outdir = tmp_path / "out"
        config = write_config(
            tmp_path, f"experiment = eigvec\np = 16\ndepths = 0,2,5\noutdir = {outdir}\n"
        )
        assert main(["run", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "runtime error: No space left on device\n"
        assert captured.out == ""
        assert sorted(outdir.iterdir()) == output_files(parse_config(config))[:1]

    def test_allocation_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # A size the machine could really fail to allocate would take it
        # down first, so the runner raises as numpy does when it cannot.
        def out_of_memory(cfg):
            raise MemoryError("Unable to allocate 80.0 GiB for an array")

        monkeypatch.setitem(RUNNERS, "sweep", out_of_memory)
        config = write_config(tmp_path, SMALL_SWEEP + f"outdir = {tmp_path}\n")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err == (
            "runtime error: Unable to allocate 80.0 GiB for an array\n")


class TestDeterminism:
    def test_cli_rerun_byte_identical(self, tmp_path, capsys):
        blobs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            config = write_config(
                tmp_path, SMALL_SWEEP + f"outdir = {outdir}\n", name=f"{name}.cfg"
            )
            assert main(["run", str(config)]) == 0
            capsys.readouterr()
            blobs.append((outdir / "sweep.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        config = write_config(tmp_path, SMALL_SWEEP + f"outdir = {tmp_path}\n")
        # The checkout's own package, as pytest's pythonpath gives this process.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "convkernel.cli", "validate", str(config)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "config OK" in proc.stdout
