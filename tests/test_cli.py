"""End-to-end CLI behavior: exit codes, file outputs, byte stability."""
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import tubekit
from conftest import make_gt, make_prediction, make_tube
from tubekit.association import AssociationConfig
from tubekit.autolabel import AutolabelConfig
from tubekit.cli import build_parser, main
from tubekit.consistency import LossWeights
from tubekit.decoding import ExposureConfig
from tubekit.formats import (load_gt, load_predictions, load_tubes, save_candidates,
                             save_detections, save_gt, save_predictions, save_tubes)
from tubekit.association import FrameDetections
from tubekit.autolabel import CandidateRecord, CandidateTube
from tubekit.geometry import Box
from tubekit.mining import CostWeights
from tubekit.scenes import SceneConfig

B = Box(0.3, 0.3, 0.5, 0.5)
OFF = Box(0.7, 0.7, 0.9, 0.9)


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate(tmp_path, name: str, *extra: str) -> str:
    prefix = str(tmp_path / name)
    assert main(["simulate", "--seed", "21", "--frames", "20", "--out", prefix,
                 *extra]) == 0
    return prefix


def run_fresh(*argv: str, timeout: int = 60) -> subprocess.CompletedProcess:
    """`python *argv` in a fresh process that imports this tubekit."""
    src = str(Path(tubekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=timeout)


def spoil_embed(prefix: str, line: int, value: float) -> Path:
    """Set every element of the first embed on `line` (1-based) of the
    detections file of `prefix` to `value`; returns the file."""
    path = Path(f"{prefix}.detections.jsonl")
    lines = path.read_text().splitlines()
    obj = json.loads(lines[line - 1])
    obj["detections"][0]["embed"] = [value] * len(obj["detections"][0]["embed"])
    lines[line - 1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    return path


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        assert main(["simulate", "--seed", "1", "--out", str(tmp_path / "s")]) == 0

    def test_domain_error_is_one(self, tmp_path, capsys):
        assert main(["simulate", "--seed", "1", "--frames", "1",
                     "--out", str(tmp_path / "s")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.tubes.json"
        bad.write_text("{broken")
        gt = tmp_path / "ok.gt.json"
        save_gt(str(gt), "vid", make_gt(0, [B, B]))
        assert main(["mine", "--tubes", str(bad), "--gt", str(gt),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_jobs_is_not_an_option(self, tmp_path, capsys, monkeypatch):
        prefix = simulate(tmp_path, "s")
        out = tmp_path / "t.json"
        with pytest.raises(SystemExit) as exc:
            main(["associate", f"{prefix}.detections.jsonl", "--jobs", "2",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setenv("TUBEKIT_JOBS", "two")
        assert main(["associate", f"{prefix}.detections.jsonl", "--out", str(out)]) == 0

    @pytest.mark.parametrize("argv", [["simulate", "--seed", "-1", "--out", "s"],
                                      ["exposure", "--length", "20", "--eps", "0.1",
                                       "--seed", "-1", "--out", "e.json"]])
    def test_negative_seed_is_one(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, path", [
        (["mine", "--tubes", "v.tubes.json", "--gt", "v.gt.json", "--out", "missing/m.json"],
         "missing/m.json"),
        (["select", "--tubes", "v.tubes.json", "--out", "a-dir"], "a-dir"),
        (["simulate", "--seed", "1", "--out", "missing/x"], "missing/x.detections.jsonl"),
        (["eval", "--pred", "v.pred.jsonl", "--gt", "v.gt.json", "--drift", "missing/d.csv",
          "--out", "r.json"], "missing/d.csv"),
        (["associate", "s.detections.jsonl", "--out-dir", "v.gt.json"], "v.gt.json"),
    ])
    def test_unwritable_output_is_two(self, tmp_path, capsys, monkeypatch, argv, path):
        # Each of these ended in a traceback: an OSError from open or mkdir.
        monkeypatch.chdir(tmp_path)
        simulate(tmp_path, "s")
        save_tubes("v.tubes.json", "v", [make_tube(0, [B] * 5, 1.0)])
        save_gt("v.gt.json", "v", make_gt(0, [B] * 5))
        save_predictions("v.pred.jsonl", [("v", make_prediction(0, 4, 0, [B] * 5))])
        Path("a-dir").mkdir()
        before = {p: p.read_bytes() for p in Path().iterdir() if p.is_file()}
        names = set(Path().iterdir())
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot write file: ") and err.count("\n") == 1
        # The path that could not be opened is left as it was.
        assert Path("a-dir").is_dir() and not Path("missing").exists()
        assert all(p.read_bytes() == data for p, data in before.items())
        # No output is left behind, eval's report beside its unwritable CSV included.
        assert set(Path().iterdir()) == names and not Path("r.json").exists()

    def test_refused_input_makes_no_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("bad.detections.jsonl").write_text("{not json\n")
        assert main(["associate", "--out-dir", "made/deep", "bad.detections.jsonl"]) == 2
        assert "invalid JSON" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "bad.detections.jsonl"]

    @pytest.mark.parametrize("outs", [[], ["--out", "a.json", "--out-dir", "made/deep"]],
                             ids=["neither", "both"])
    def test_associate_takes_one_of_out_and_out_dir(self, tmp_path, capsys, monkeypatch, outs):
        monkeypatch.chdir(tmp_path)
        simulate(tmp_path, "s")
        names = set(Path().iterdir())
        with pytest.raises(SystemExit) as exc:
            main(["associate", "s.detections.jsonl", *outs])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert set(Path().iterdir()) == names   # no file, no directory

    def test_version_string(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("tubekit ")
        assert "schema 1" in out


class TestSimulate:
    def test_writes_detections_and_gt(self, tmp_path, capsys):
        prefix = simulate(tmp_path, "s")
        assert (tmp_path / "s.detections.jsonl").exists()
        assert (tmp_path / "s.gt.json").exists()
        assert not (tmp_path / "s.labels.json").exists()

    def test_labels_flag(self, tmp_path, capsys):
        simulate(tmp_path, "s", "--labels")
        assert (tmp_path / "s.labels.json").exists()

    @pytest.mark.parametrize("fps", ["nan", "inf", "-3", "0"])
    def test_fps_must_be_positive_and_finite(self, tmp_path, capsys, fps):
        assert main(["simulate", "--seed", "1", "--fps", fps,
                     "--out", str(tmp_path / "s")]) == 1
        assert "--fps must be a positive finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("blocked, extra", [("gt.json", []), ("labels.json", ["--labels"])])
    def test_later_write_failure_leaves_no_file(self, tmp_path, capsys, blocked, extra):
        # The files written before the refused one go too.
        (tmp_path / f"p.{blocked}").mkdir()
        assert main(["simulate", "--seed", "1", "--frames", "8",
                     "--out", str(tmp_path / "p"), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / f'p.{blocked}'}: cannot write file: ")
        assert list(tmp_path.iterdir()) == [tmp_path / f"p.{blocked}"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        simulate(tmp_path, "a", "--labels")
        simulate(tmp_path, "b", "--labels")
        for suffix in ("detections.jsonl", "gt.json", "labels.json"):
            assert sha(tmp_path / f"a.{suffix}") == sha(tmp_path / f"b.{suffix}")


    @pytest.mark.parametrize("step, code", [("1e300", 0), ("1e308", 1)])
    def test_huge_motion_step_ends(self, tmp_path, step, code):
        # The border fold used to loop forever at these sizes.  At 1e308 a
        # step overflows to infinity, which has no folded position.
        prefix = str(tmp_path / "s")
        result = run_fresh("-m", "tubekit.cli", "simulate", "--seed", "3", "--frames", "12",
                           "--objects", "2", "--motion-step", step, "--out", prefix)
        assert result.returncode == code, result.stderr
        if code == 0:
            assert load_gt(prefix + ".gt.json")[1].length >= 1
        else:
            assert "motion_step is too large" in result.stderr


class TestGoldenBytes:
    """simulate, then associate --embed, byte for byte: generate_scene,
    save_detections, load_detections, run_association and save_tubes all
    lie on this path.  A change that moves one of these digests must say
    which bytes changed and why."""

    DIGESTS = {
        "detections.jsonl": "7c5512d9104d86ea0df9c3c98f7728ddc49fb5d7eed3d0563bf6f0a437e04c8f",
        "gt.json": "28cbade33e72070cb163e9b3b9a3fe5effd2dcf9a53c35615638ec91196a73ae",
        "labels.json": "b16e2f7237985e2ec0d2989a8655802f530bd13a03fce43e652d907da7a9ac11",
        "tubes.json": "7562a80a38bb6e65da3b92a1dba757bceac877be141144e79e1181e2abca7c83",
    }

    def test_simulate_then_associate(self, tmp_path, capsys):
        prefix = str(tmp_path / "g")
        assert main(["simulate", "--seed", "7", "--frames", "24", "--objects", "3",
                     "--feature-dim", "8", "--labels", "--out", prefix]) == 0
        assert main(["associate", "--n-q", "3", "--embed", f"{prefix}.detections.jsonl",
                     "--out", f"{prefix}.tubes.json"]) == 0
        assert {suffix: sha(Path(f"{prefix}.{suffix}")) for suffix in self.DIGESTS} == \
            self.DIGESTS

    # The rest of the README walkthrough on the same clip, plus autolabel on
    # GOLDEN_CANDIDATES: GT and prediction files, the mining, loss, metric
    # and drift reports, and interpolated pseudo annotations.
    WALKTHROUGH = {
        "mine.json": "b5cd3b7e4aa77ece13a24ad4f817293af0daeec498c2dcc80d411297ba1fd801",
        "losses.json": "f373ae65733b8b9bbef6c82331eb338d458eae008e182b615a558070e5e33292",
        "gc.json": "353ad9e1407023d1d34aa418d4cc9ace295a296cd493d2d09eb5ab993544e731",
        "pred.jsonl": "79739b8ab63d0931ef344f6efe74dc71b1223ff46396020098f872b50d35c8df",
        "n.pred.jsonl": "53ceb58dd9cedc5f14b64f0f4db5e50c201a422285c4ed09ede26e2e3bb15e5c",
        "eval.json": "6cffaa127f0f5bd4e4df6ed583921af617a4f960858781ed8488e788cddd5257",
        "drift.csv": "c26d3fde690871ddbc6d5b0af4650e7ccf142ea47ca32f440201364a047b097b",
        "exposure.json": "46571acd4f610fafac02f87862da5de4555b5a2f8f3748b57aa27a4a0148dccf",
        "pseudo.gt.json": "b5b7a0bce7c46dbf8e00f852103140da4298b77d13c076e660dad70387a98f52",
    }

    def test_walkthrough_outputs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)   # reports echo their input paths
        Path("cands.json").write_text(json.dumps(GOLDEN_CANDIDATES))
        for argv in (
                ["simulate", "--seed", "7", "--frames", "24", "--objects", "3",
                 "--feature-dim", "8", "--labels", "--out", "g"],
                ["associate", "--n-q", "3", "--embed", "g.detections.jsonl",
                 "--out", "g.tubes.json"],
                ["mine", "--tubes", "g.tubes.json", "--gt", "g.gt.json", "--out", "mine.json"],
                ["losses", "--tubes", "g.tubes.json", "--out", "losses.json"],
                ["grad-check", "--tubes", "g.tubes.json", "--slot", "0", "--out", "gc.json"],
                ["select", "--tubes", "g.tubes.json", "--gt", "g.gt.json", "--out", "pred.jsonl"],
                # A noisy one-object clip, so that the predicted boxes overlap the GT.
                ["simulate", "--seed", "7", "--frames", "24", "--detection-noise", "0.02",
                 "--video-id", "noisy", "--out", "n"],
                ["associate", "--n-q", "2", "n.detections.jsonl", "--out", "n.tubes.json"],
                ["select", "--tubes", "n.tubes.json", "--gt", "n.gt.json", "--out", "n.pred.jsonl"],
                ["eval", "--pred", "preds.jsonl", "--gt", "gts.jsonl", "--drift", "drift.csv",
                 "--out", "eval.json"],
                ["exposure", "--length", "80", "--eps", "0.01", "--trials", "500",
                 "--seed", "7", "--out", "exposure.json"],
                ["autolabel", "--candidates", "cands.json", "--ts", "2", "--te", "21",
                 "--out", "pseudo.gt.json"]):
            if argv[0] == "eval":
                for out, parts in (("preds.jsonl", ("pred.jsonl", "n.pred.jsonl")),
                                   ("gts.jsonl", ("g.gt.json", "n.gt.json"))):
                    Path(out).write_text("".join(Path(p).read_text() for p in parts))
            assert main(argv) == 0, argv
        assert {name: sha(Path(name)) for name in self.WALKTHROUGH} == self.WALKTHROUGH


def _fragment(s: int, e: int, x0: float, score: float, appearance: list) -> dict:
    """A candidate over frames s..e whose box slides right by 0.01 a frame."""
    return {"category": "person", "span": [s, e], "appearance": appearance,
            "records": [{"t": t, "box": [x0 + 0.01 * t, 0.2 + 0.005 * t, x0 + 0.3 + 0.01 * t, 0.6],
                         "score": score} for t in range(s, e + 1)]}


# Three fragments of one walker with two-frame gaps and jumps between them,
# a look-alike that overlaps all three (a conflict, never merged) and a car
# over the whole clip.
GOLDEN_CANDIDATES = {"video_id": "golden", "candidates": [
    _fragment(0, 6, 0.1, 0.9, [1.0, 0.1]),
    _fragment(9, 14, 0.13, 0.85, [1.0, 0.12]),
    _fragment(17, 23, 0.08, 0.8, [1.0, 0.08]),
    _fragment(3, 20, 0.3, 0.3, [1.0, -0.3]),
    {**_fragment(0, 23, 0.5, 0.6, [0.0, 1.0]), "category": "car"},
]}


class TestAssociate:
    def test_single_file(self, tmp_path, capsys):
        prefix = simulate(tmp_path, "s")
        out = tmp_path / "s.tubes.json"
        assert main(["associate", f"{prefix}.detections.jsonl",
                     "--n-q", "3", "--out", str(out)]) == 0
        video_id, tubes = load_tubes(str(out))
        assert len(tubes) == 3
        assert all(len(t.records) == 20 for t in tubes)

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        prefix = simulate(tmp_path, "s")
        for name in ("x", "y"):
            assert main(["associate", f"{prefix}.detections.jsonl",
                         "--n-q", "2", "--embed",
                         "--out", str(tmp_path / f"{name}.json")]) == 0
        assert sha(tmp_path / "x.json") == sha(tmp_path / "y.json")

    def test_out_dir_matches_single_input_runs(self, tmp_path, capsys):
        p1 = simulate(tmp_path, "c1")
        p2 = str(tmp_path / "c2")
        assert main(["simulate", "--seed", "22", "--frames", "20", "--out", p2]) == 0
        inputs = [f"{p2}.detections.jsonl", f"{p1}.detections.jsonl"]
        capsys.readouterr()
        for sub in ("run", "rerun"):
            assert main(["associate", *inputs, "--n-q", "2", "--embed",
                         "--out-dir", str(tmp_path / sub)]) == 0
            assert capsys.readouterr().out == "".join(
                f"{v}: 2 tubes -> {tmp_path / sub / f'{v}.tubes.json'}\n"
                for v in ("sim-21", "sim-22"))
        for path, video_id in zip(inputs, ("sim-22", "sim-21")):
            single = tmp_path / f"{video_id}.json"
            assert main(["associate", path, "--n-q", "2", "--embed",
                         "--out", str(single)]) == 0
            name = f"{video_id}.tubes.json"
            assert sha(tmp_path / "run" / name) == sha(single) == sha(tmp_path / "rerun" / name)
        assert len(list((tmp_path / "run").iterdir())) == 2

    def test_repeated_video_id_refused(self, tmp_path, capsys):
        a = simulate(tmp_path, "a", "--video-id", "same")
        b = str(tmp_path / "b")
        assert main(["simulate", "--seed", "22", "--frames", "20", "--video-id", "same",
                     "--out", b]) == 0
        solo = tmp_path / "solo.json"
        assert main(["associate", f"{a}.detections.jsonl", "--n-q", "2",
                     "--out", str(solo)]) == 0
        capsys.readouterr()
        outdir = tmp_path / "o"
        assert main(["associate", f"{a}.detections.jsonl", f"{b}.detections.jsonl",
                     "--n-q", "2", "--out-dir", str(outdir)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{a}.detections.jsonl and {b}.detections.jsonl" in err
        assert "'same'" in err
        # The first input's file stands; the second never overwrote it.
        assert [p.name for p in outdir.iterdir()] == ["same.tubes.json"]
        assert sha(outdir / "same.tubes.json") == sha(solo)

    def test_string_embed_is_format_error(self, tmp_path, capsys):
        prefix = simulate(tmp_path, "s")
        path = Path(f"{prefix}.detections.jsonl")
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["detections"][0]["embed"] = [str(x) for x in obj["detections"][0]["embed"]]
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "t.json"
        assert main(["associate", str(path), "--out", str(out)]) == 2
        assert f"{path}:2: 'embed' must be an array of numbers" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_embed_is_format_error(self, tmp_path, capsys):
        # Finite elements whose norm overflows are refused like a zero norm,
        # at the line that holds them.
        path = spoil_embed(simulate(tmp_path, "s"), 3, 1e200)
        out = tmp_path / "t.json"
        assert main(["associate", str(path), "--out", str(out)]) == 2
        assert (f"{path}:3: detection feature must have a finite, positive norm"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_underflowing_embed_is_format_error(self, tmp_path, capsys):
        # A nonzero embed whose squared norm underflows to 0 is refused as a
        # zero norm (the rule of checked_norms), on one error line.
        path = spoil_embed(simulate(tmp_path, "s"), 3, 1e-200)
        out = tmp_path / "t.json"
        capsys.readouterr()
        assert main(["associate", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {path}:3: detection feature must have "
                                           "a finite, positive norm\n")
        assert not out.exists()

    def test_overflowing_embed_prints_only_the_error(self, tmp_path):
        # In a fresh process, where numpy's overflow warning would reach
        # stderr: the refusal must be the one line there.
        path = spoil_embed(simulate(tmp_path, "s"), 3, 1e200)
        result = run_fresh("-m", "tubekit.cli", "associate", str(path),
                           "--out", str(tmp_path / "t.json"))
        assert result.returncode == 2
        assert result.stderr == (f"error: {path}:3: detection feature must have "
                                 "a finite, positive norm\n")

    def test_non_utf8_input_is_one_error_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'\xff\xfe{"a": 1}\n')
        out = tmp_path / "x.json"
        result = run_fresh("-m", "tubekit.cli", "associate", str(path), "--out", str(out))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {path}: cannot read file: not UTF-8 text")
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
        assert not out.exists()

    def test_cold_start_skips_scipy_optimize(self, tmp_path, capsys):
        prefix = simulate(tmp_path, "s")
        out = tmp_path / "t.json"
        code = (
            "import sys, tubekit.cli\n"
            "def scipy_loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not scipy_loaded(), scipy_loaded()\n"
            "assert 'concurrent.futures' not in sys.modules, 'loaded at import'\n"
            f"assert tubekit.cli.main(['associate', {prefix + '.detections.jsonl'!r},"
            f" '--n-q', '2', '--out', {str(out)!r}]) == 0\n"
            "assert not scipy_loaded(), scipy_loaded()\n")
        result = run_fresh("-c", code, timeout=120)
        assert result.returncode == 0, result.stderr
        _, tubes = load_tubes(str(out))
        assert len(tubes) == 2

    def test_out_with_several_inputs_rejected(self, tmp_path, capsys):
        prefix = simulate(tmp_path, "s")
        assert main(["associate", f"{prefix}.detections.jsonl",
                     f"{prefix}.detections.jsonl",
                     "--out", str(tmp_path / "t.json")]) == 1

    def test_cancelling_memory_names_the_frame(self, tmp_path, capsys):
        # alpha 0.5 and frame 1's only detection the negation of frame 0's:
        # the slot's memory blends to exactly 0.
        frames = [FrameDetections(t, [B.to_list()], [0.9], [[0.6 * sign, -0.8 * sign]])
                  for t, sign in enumerate((1.0, -1.0))]
        path = tmp_path / "c.detections.jsonl"
        save_detections(str(path), "c", 5.0, frames)
        out = tmp_path / "c.tubes.json"
        assert main(["associate", str(path), "--n-q", "1", "--alpha", "0.5",
                     "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err == ("error: frame 1: memory contains a slot vector that is not finite, "
                       "or whose norm is zero or overflows\n")


def write_planted_tubes(tmp_path):
    # Tube 1 sits exactly on the GT box; tube 0 is far away.
    tubes = [
        make_tube(0, [OFF] * 6, 1.0, features=np.tile([1.0, 0.0], (6, 1))),
        make_tube(1, [B] * 6, 1.0, det=np.ones(6, dtype=int),
                  features=np.tile([1.0, 0.0], (6, 1))),
    ]
    tubes_path = tmp_path / "plant.tubes.json"
    gt_path = tmp_path / "plant.gt.json"
    save_tubes(str(tubes_path), "plant", tubes)
    save_gt(str(gt_path), "plant", make_gt(2, [B, B]))
    return tubes_path, gt_path


class TestMine:
    def test_planted_tube_selected(self, tmp_path, capsys):
        tubes_path, gt_path = write_planted_tubes(tmp_path)
        out = tmp_path / "mine.json"
        assert main(["mine", "--tubes", str(tubes_path), "--gt", str(gt_path),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["selected"] == 1
        assert report["config"]["lambda_bbox"] == 5.0
        assert len(report["costs"]) == 2
        assert report["costs"][1]["total"] == 0.0

    def test_nan_score_is_format_error(self, tmp_path, capsys):
        tubes_path, gt_path = write_planted_tubes(tmp_path)
        doc = json.loads(tubes_path.read_text())
        doc["tubes"][0]["records"][0]["score"] = float("nan")
        tubes_path.write_text(json.dumps(doc))   # a bare NaN, as json.dumps allows
        out = tmp_path / "mine.json"
        assert main(["mine", "--tubes", str(tubes_path), "--gt", str(gt_path),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {tubes_path}: tube 0 frame 0: score must "
                                           "lie in [0, 1], got nan\n")
        assert not out.exists()

    def test_string_score_is_format_error(self, tmp_path, capsys):
        tubes_path, gt_path = write_planted_tubes(tmp_path)
        doc = json.loads(tubes_path.read_text())
        doc["tubes"][1]["records"][3]["score"] = "high"
        tubes_path.write_text(json.dumps(doc))
        out = tmp_path / "mine.json"
        assert main(["mine", "--tubes", str(tubes_path), "--gt", str(gt_path),
                     "--out", str(out)]) == 2
        assert "'score' must be a number, got 'high'" in capsys.readouterr().err
        assert not out.exists()

    def test_reversed_tube_is_format_error(self, tmp_path, capsys):
        tubes_path, gt_path = write_planted_tubes(tmp_path)
        doc = json.loads(tubes_path.read_text())
        doc["tubes"][1]["records"].reverse()
        tubes_path.write_text(json.dumps(doc))
        out = tmp_path / "mine.json"
        assert main(["mine", "--tubes", str(tubes_path), "--gt", str(gt_path),
                     "--out", str(out)]) == 2
        assert "tube 1: records must be strictly increasing in t" in capsys.readouterr().err
        assert not out.exists()

    def test_video_id_mismatch_rejected(self, tmp_path, capsys):
        tubes_path, _ = write_planted_tubes(tmp_path)
        other_gt = tmp_path / "other.gt.json"
        save_gt(str(other_gt), "other", make_gt(0, [B, B]))
        assert main(["mine", "--tubes", str(tubes_path), "--gt", str(other_gt),
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_custom_lambdas_echoed(self, tmp_path, capsys):
        tubes_path, gt_path = write_planted_tubes(tmp_path)
        out = tmp_path / "mine.json"
        assert main(["mine", "--tubes", str(tubes_path), "--gt", str(gt_path),
                     "--lambda-cls", "1", "--lambda-bbox", "5",
                     "--lambda-giou", "3", "--lambda-temp", "0",
                     "--out", str(out)]) == 0
        cfg = json.loads(out.read_text())["config"]
        assert (cfg["lambda_cls"], cfg["lambda_bbox"],
                cfg["lambda_giou"], cfg["lambda_temp"]) == (1.0, 5.0, 3.0, 0.0)


class TestTubeFileShape:
    """Every subcommand that reads a tube file refuses one that holds no
    tube, or that holds one slot_id twice (exit 2, naming the file)."""

    @staticmethod
    def _run(argv, tubes, gt, out):
        extra = {"mine": ["--gt", str(gt)], "losses": ["--slot", "0"]}.get(argv, [])
        return main([argv, "--tubes", str(tubes), *extra, "--out", str(out)])

    @pytest.mark.parametrize("argv", ["mine", "losses", "grad-check", "select"])
    def test_no_tubes(self, tmp_path, capsys, argv):
        # grad-check used to write its report, then die on max() of nothing.
        tubes = tmp_path / "none.tubes.json"
        tubes.write_text(json.dumps({"video_id": "v", "n_q": 0, "tubes": []}))
        gt = tmp_path / "v.gt.json"
        save_gt(str(gt), "v", make_gt(0, [B]))
        out = tmp_path / "r.json"
        assert self._run(argv, tubes, gt, out) == 2
        assert capsys.readouterr().err == f"error: {tubes}: the tube file holds no tubes\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", ["mine", "losses", "select"])
    def test_repeated_slot_id(self, tmp_path, capsys, argv):
        # mine used to report two slot_id 0 rows, and --slot 0 took both tubes.
        tubes, gt = write_planted_tubes(tmp_path)
        doc = json.loads(tubes.read_text())
        doc["tubes"][1]["slot_id"] = 0
        tubes.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert self._run(argv, tubes, gt, out) == 2
        assert capsys.readouterr().err == (f"error: {tubes}: slot_id 0 is held by more "
                                           "than one tube\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", ["mine", "losses", "select"])
    def test_score_above_one(self, tmp_path, capsys, argv):
        # Such a tube used to load, and select (mean score) and mine
        # (1 - score) favoured it.
        tubes, gt = write_planted_tubes(tmp_path)
        doc = json.loads(tubes.read_text())
        doc["tubes"][1]["records"][2]["score"] = 5.0
        tubes.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert self._run(argv, tubes, gt, out) == 2
        assert capsys.readouterr().err == (f"error: {tubes}: tube 1 frame 2: score must "
                                           "lie in [0, 1], got 5.0\n")
        assert not out.exists()


class TestLossesAndGradCheck:
    def _tubes_with_embeds(self, tmp_path):
        prefix = simulate(tmp_path, "s", "--motion-step", "0.02")
        out = tmp_path / "s.tubes.json"
        assert main(["associate", f"{prefix}.detections.jsonl", "--n-q", "1",
                     "--embed", "--out", str(out)]) == 0
        return out

    def test_losses_report(self, tmp_path, capsys):
        tubes = self._tubes_with_embeds(tmp_path)
        out = tmp_path / "losses.json"
        assert main(["losses", "--tubes", str(tubes), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        row = report["losses"][0]
        assert set(row) == {"slot_id", "feature_loss", "geom_loss", "combined"}
        assert report["config"]["lambda_temp"] == 2.0
        assert report["config"]["lambda_feat"] == 1.0
        assert row["combined"] == pytest.approx(
            2.0 * row["geom_loss"] + row["feature_loss"], abs=1e-8)

    def test_losses_without_embeds_rejected(self, tmp_path, capsys):
        tubes_path, _ = write_planted_tubes(tmp_path)
        plain = tmp_path / "noembed.tubes.json"
        _, tubes = load_tubes(str(tubes_path))
        save_tubes(str(plain), "plant", tubes)  # embeds dropped on save
        assert main(["losses", "--tubes", str(plain),
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_overflowing_embeds_refused(self, tmp_path, capsys):
        # Two adjacent embeds whose norms overflow: refused as features,
        # not left to turn the loss into NaN at the writer.
        tubes = self._tubes_with_embeds(tmp_path)
        doc = json.loads(tubes.read_text())
        for rec in doc["tubes"][0]["records"][1:3]:
            rec["embed"] = [1e200] * len(rec["embed"])
        tubes.write_text(json.dumps(doc))
        out = tmp_path / "losses.json"
        assert main(["losses", "--tubes", str(tubes), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: features contain a row whose norm is zero or overflows" in err
        assert not out.exists()

    def test_grad_check_report(self, tmp_path, capsys):
        tubes = self._tubes_with_embeds(tmp_path)
        out = tmp_path / "gc.json"
        assert main(["grad-check", "--tubes", str(tubes), "--slot", "0",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["step"] == 1e-6
        check = report["checks"][0]
        assert check["slot_id"] == 0
        assert check["max_rel_error"] < 1e-4

    def test_grad_check_step_that_overflows_refused(self, tmp_path, capsys):
        tubes = self._tubes_with_embeds(tmp_path)
        out = tmp_path / "gc.json"
        assert main(["grad-check", "--tubes", str(tubes), "--step", "1e300",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: step 1e+300 moves a feature row to a norm that is not finite and positive\n")
        assert not out.exists()

    def test_unknown_slot_rejected(self, tmp_path, capsys):
        tubes = self._tubes_with_embeds(tmp_path)
        assert main(["losses", "--tubes", str(tubes), "--slot", "9",
                     "--out", str(tmp_path / "r.json")]) == 1


class TestSelectAndEval:
    def _pipeline(self, tmp_path):
        prefix = simulate(tmp_path, "clean")
        tubes = tmp_path / "clean.tubes.json"
        assert main(["associate", f"{prefix}.detections.jsonl", "--n-q", "1",
                     "--out", str(tubes)]) == 0
        preds = tmp_path / "clean.predictions.jsonl"
        assert main(["select", "--tubes", str(tubes), "--gt", f"{prefix}.gt.json",
                     "--out", str(preds)]) == 0
        return prefix, preds

    def test_noiseless_pipeline_is_perfect(self, tmp_path, capsys):
        prefix, preds = self._pipeline(tmp_path)
        out = tmp_path / "eval.json"
        assert main(["eval", "--pred", str(preds), "--gt", f"{prefix}.gt.json",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["m_t_iou"] == 1.0
        assert report["m_v_iou"] == 1.0
        assert report["v_iou_at"] == {"0.3": 1.0, "0.5": 1.0}

    def test_every_threshold_keeps_its_key(self, tmp_path, capsys):
        # The keys were written with "{:g}", six significant digits: these
        # five thresholds came out as "0.3" and "1".
        prefix, preds = self._pipeline(tmp_path)
        out = tmp_path / "eval.json"
        taus = ["0.3", "0.3000001", "0.99999991", "0.99999992", "1"]
        assert main(["eval", "--pred", str(preds), "--gt", f"{prefix}.gt.json",
                     *[arg for tau in taus for arg in ("--tau", tau)], "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert list(report["v_iou_at"]) == ["0.3", "0.3000001", "0.99999991", "0.99999992", "1.0"]
        assert list(report["v_iou_at"]) == [repr(tau) for tau in report["config"]["tau"]]

    def test_thresholds_alike_to_9_digits_refused(self, tmp_path, capsys):
        prefix, preds = self._pipeline(tmp_path)
        out = tmp_path / "eval.json"
        assert main(["eval", "--pred", str(preds), "--gt", f"{prefix}.gt.json", "--tau", "0.3",
                     "--tau", "0.3000000001", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: report keys [0.3, 0.3000000001] coincide at 9 significant digits\n")
        assert not out.exists()

    def test_drift_and_report_on_one_path_refused(self, tmp_path, capsys, monkeypatch):
        # The drift CSV used to overwrite the report, and eval exited 0.
        prefix, preds = self._pipeline(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--pred", str(preds), "--gt", f"{prefix}.gt.json",
                     "--drift", "X", "--out", "./X"]) == 1
        assert capsys.readouterr().err == ("error: eval takes --out and --drift as two files; "
                                           "got --out ./X --drift X\n")
        assert not (tmp_path / "X").exists()

    def test_drift_csv_shape(self, tmp_path, capsys):
        prefix, preds = self._pipeline(tmp_path)
        csv_path = tmp_path / "drift.csv"
        assert main(["eval", "--pred", str(preds), "--gt", f"{prefix}.gt.json",
                     "--drift", str(csv_path), "--out", str(tmp_path / "e.json")]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].split(",") == ["part_1", "part_2", "part_3", "part_4", "part_5"]
        assert len(lines) == 2
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    @pytest.mark.parametrize("gt, pred, message", [
        (make_gt(0, [B] * 3), make_prediction(0, 2, 0, [B] * 3),
         "interval [0, 2] is too short to split into fifths"),
        (make_gt(0, [B] * 10), make_prediction(0, 4, 0, [B] * 5),
         "prediction lacks boxes at GT frames [5, 6, 7, 8, 9]"),
    ])
    def test_drift_refusal_writes_nothing(self, tmp_path, capsys, gt, pred, message):
        # The report and a header-only CSV used to be written before the refusal.
        save_gt(str(tmp_path / "g.json"), "v", gt)
        save_predictions(str(tmp_path / "p.jsonl"), [("v", pred)])
        out, drift = tmp_path / "r.json", tmp_path / "d.csv"
        assert main(["eval", "--pred", str(tmp_path / "p.jsonl"), "--gt", str(tmp_path / "g.json"),
                     "--drift", str(drift), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not drift.exists()

    def test_select_interval_flags(self, tmp_path, capsys):
        prefix = simulate(tmp_path, "clean")
        tubes = tmp_path / "clean.tubes.json"
        assert main(["associate", f"{prefix}.detections.jsonl", "--n-q", "1",
                     "--out", str(tubes)]) == 0
        preds = tmp_path / "p.jsonl"
        assert main(["select", "--tubes", str(tubes), "--ts", "4", "--te", "9",
                     "--out", str(preds)]) == 0
        (_, pred), = load_predictions(str(preds))
        assert (pred.ts, pred.te) == (4, 9)
        assert main(["select", "--tubes", str(tubes), "--out", str(preds)]) == 0
        (_, pred), = load_predictions(str(preds))
        assert (pred.ts, pred.te) == (0, 19)

    @pytest.mark.parametrize("flags, named", [
        (["--ts", "5"], "--ts"), (["--te", "9"], "--te"),
        (["--gt", "GT", "--ts", "4", "--te", "9"], "--ts --te --gt"),
        (["--gt", "GT", "--te", "9"], "--te --gt")])
    def test_select_half_interval_refused(self, tmp_path, capsys, flags, named):
        # Each of these used to fall back to another interval in silence.
        tubes, gt = write_planted_tubes(tmp_path)
        out = tmp_path / "p.jsonl"
        assert main(["select", "--tubes", str(tubes), *[str(gt) if f == "GT" else f for f in flags],
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: select takes --ts with --te, or --gt, or "
                                           f"neither; got {named}\n")
        assert not out.exists()

    def test_repeated_video_id_rejected(self, tmp_path, capsys):
        prefix, preds = self._pipeline(tmp_path)
        line = json.loads(preds.read_text())
        shifted = {**line, "ts": line["ts"] + 3}
        preds.write_text(json.dumps(shifted) + "\n" + json.dumps(line) + "\n")
        out = tmp_path / "e.json"
        assert main(["eval", "--pred", str(preds), "--gt", f"{prefix}.gt.json",
                     "--out", str(out)]) == 2
        assert f"{preds}:2: video_id 'sim-21' is also on line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_video_set_mismatch_rejected(self, tmp_path, capsys):
        prefix, preds = self._pipeline(tmp_path)
        other = tmp_path / "other.gt.json"
        save_gt(str(other), "someone-else", make_gt(0, [B, B]))
        assert main(["eval", "--pred", str(preds), "--gt", str(other),
                     "--out", str(tmp_path / "e.json")]) == 1


class TestExposure:
    def test_report_keys_and_profile(self, tmp_path, capsys):
        out = tmp_path / "exp.json"
        assert main(["exposure", "--length", "80", "--eps", "0.01",
                     "--trials", "500", "--seed", "5", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for key in ("analytic", "linearized", "empirical", "profile"):
            assert key in report
        assert len(report["profile"]) == 5

    def test_zero_eps_is_clean(self, tmp_path, capsys):
        out = tmp_path / "exp.json"
        assert main(["exposure", "--length", "40", "--eps", "0", "--trials", "200",
                     "--seed", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["empirical"] == 1.0
        assert report["profile"] == [1.0] * 5

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert main(["exposure", "--length", "80", "--eps", "0.02",
                         "--trials", "300", "--seed", "9",
                         "--out", str(tmp_path / f"{name}.json")]) == 0
        assert sha(tmp_path / "a.json") == sha(tmp_path / "b.json")

    def test_zero_token_budget_rejected(self, tmp_path, capsys):
        assert main(["exposure", "--length", "40", "--eps", "0.01", "--token-budget", "0",
                     "--seed", "1", "--out", str(tmp_path / "e.json")]) == 1
        assert capsys.readouterr().err == "error: token_budget must be at least 1, got 0\n"

    def test_length_under_five_budgets_rejected(self, tmp_path, capsys):
        # The track is --length / --token-budget boxes, and the profile needs
        # five; the refusal named boxes the user never gave.
        out = tmp_path / "e.json"
        assert main(["exposure", "--length", "16", "--eps", "0.1", "--token-budget", "4",
                     "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: --length must be at least 5 x "
                                           "--token-budget (20), got 16\n")
        assert not out.exists()

    def test_length_budget_mismatch_rejected(self, tmp_path, capsys):
        assert main(["exposure", "--length", "42", "--eps", "0.01",
                     "--trials", "100", "--seed", "1",
                     "--out", str(tmp_path / "e.json")]) == 1


class TestAutolabel:
    def _candidates(self, tmp_path):
        cands = [
            CandidateTube(category="dog", span=(0, 4),
                          records=[CandidateRecord(t=t, box=B, score=0.9)
                                   for t in range(5)],
                          appearance=np.array([1.0, 0.0])),
            CandidateTube(category="dog", span=(10, 14),
                          records=[CandidateRecord(t=t, box=B, score=0.8)
                                   for t in range(10, 15)],
                          appearance=np.array([1.0, 0.05])),
        ]
        path = tmp_path / "frag.candidates.json"
        save_candidates(str(path), "vid", cands)
        return path

    def test_output_is_a_gt_file(self, tmp_path, capsys):
        path = self._candidates(tmp_path)
        out = tmp_path / "pseudo.gt.json"
        assert main(["autolabel", "--candidates", str(path),
                     "--ts", "0", "--te", "14", "--out", str(out)]) == 0
        video_id, gt = load_gt(str(out))
        assert video_id == "vid"
        assert (gt.ts, gt.te) == (0, 14)
        assert gt.boxes.shape == (15, 4)

    def test_far_apart_fragments_under_a_memory_cap(self, tmp_path):
        # Bridging this gap used to build ten million interpolated records
        # and die in a MemoryError traceback.  The gap is wider than the two
        # real records, so the fragments stay apart and neither covers half
        # of the interval.
        path = tmp_path / "far.candidates.json"
        path.write_text(json.dumps({"video_id": "far", "candidates": [
            {"category": "dog", "span": [t, t], "appearance": [1.0, 0.0],
             "records": [{"t": t, "box": [0.3, 0.3, 0.5, 0.5], "score": 0.9}]}
            for t in (0, 10_000_000)]}))
        out = tmp_path / "pseudo.gt.json"
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))\n"
                "from tubekit.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        result = run_fresh("-c", code, "autolabel", "--candidates", str(path), "--ts", "0",
                           "--te", "10000000", "--out", str(out), timeout=120)
        assert result.returncode == 0, result.stderr
        assert "nothing written" in result.stdout
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("order", [1, -1], ids=["as-written", "reversed"])
    def test_non_finite_score_is_format_error(self, tmp_path, capsys, value, order):
        # Such a file used to load, and the two candidate orders wrote
        # different pseudo GT.
        path = self._candidates(tmp_path)
        doc = json.loads(path.read_text())
        doc["candidates"][1]["records"][2]["score"] = value
        doc["candidates"] = doc["candidates"][::order]
        path.write_text(json.dumps(doc))   # a bare NaN or Infinity, as json.dumps allows
        out = tmp_path / "pseudo.gt.json"
        assert main(["autolabel", "--candidates", str(path),
                     "--ts", "0", "--te", "14", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {path}: frame 12: score must lie in "
                                           f"[0, 1], got {value}\n")
        assert not out.exists()

    def test_score_outside_unit_interval_is_format_error(self, tmp_path, capsys):
        # Such a file used to load, and its fragment won by its mean score.
        path = self._candidates(tmp_path)
        doc = json.loads(path.read_text())
        doc["candidates"][1]["records"][2]["score"] = 5.0
        path.write_text(json.dumps(doc))
        out = tmp_path / "pseudo.gt.json"
        assert main(["autolabel", "--candidates", str(path),
                     "--ts", "0", "--te", "14", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {path}: frame 12: score must "
                                           f"lie in [0, 1], got 5.0\n")
        assert not out.exists()

    def test_insufficient_coverage_writes_nothing(self, tmp_path, capsys):
        path = self._candidates(tmp_path)
        out = tmp_path / "pseudo.gt.json"
        assert main(["autolabel", "--candidates", str(path),
                     "--ts", "0", "--te", "100", "--out", str(out)]) == 0
        assert not out.exists()
        assert "nothing written" in capsys.readouterr().out


class TestInputsNeverMutated:
    def test_hashes_stable_across_commands(self, tmp_path, capsys):
        prefix = simulate(tmp_path, "s", "--labels")
        inputs = [tmp_path / "s.detections.jsonl", tmp_path / "s.gt.json",
                  tmp_path / "s.labels.json"]
        before = [sha(p) for p in inputs]
        tubes = tmp_path / "s.tubes.json"
        main(["associate", f"{prefix}.detections.jsonl", "--n-q", "2",
              "--embed", "--out", str(tubes)])
        main(["mine", "--tubes", str(tubes), "--gt", f"{prefix}.gt.json",
              "--out", str(tmp_path / "m.json")])
        main(["losses", "--tubes", str(tubes), "--out", str(tmp_path / "l.json")])
        preds = tmp_path / "p.jsonl"
        main(["select", "--tubes", str(tubes), "--gt", f"{prefix}.gt.json",
              "--out", str(preds)])
        main(["eval", "--pred", str(preds), "--gt", f"{prefix}.gt.json",
              "--out", str(tmp_path / "e.json")])
        tube_hash = sha(tubes)
        assert [sha(p) for p in inputs] == before
        assert sha(tubes) == tube_hash


# Each subcommand's required options, the config it builds, the fields it
# is given, and the options named otherwise than their field.
CONFIG_DEFAULTS = {
    "simulate": (["--seed", "1"], SceneConfig, {"seed": 1}, {}),
    "associate": (["d.jsonl"], AssociationConfig, {}, {}),
    "mine": (["--tubes", "t", "--gt", "g"], CostWeights, {},
             {f"w_{k}": f"lambda_{k}" for k in ("cls", "bbox", "giou", "temp")}),
    "losses": (["--tubes", "t"], LossWeights, {},
               {f"w_{k}": f"lambda_{k}" for k in ("temp", "feat")}),
    "exposure": (["--length", "40", "--eps", "0.25", "--seed", "1"], ExposureConfig,
                 {"sequence_length": 40, "per_step_error": 0.25, "seed": 1, "trials": 10000},
                 {}),
    "autolabel": (["--candidates", "c", "--ts", "0", "--te", "9"], AutolabelConfig, {}, {}),
}


@pytest.mark.parametrize("command", CONFIG_DEFAULTS)
def test_parsed_defaults_build_the_default_config(command):
    # An option that sets a config field takes the field's default, so
    # `simulate --seed 1` runs SceneConfig(seed=1).
    argv, config, given, renamed = CONFIG_DEFAULTS[command]
    args = build_parser().parse_args([command, *argv, "--out", "x"])
    defaulted = [f.name for f in fields(config)
                 if f.default is not MISSING and f.name not in given]
    parsed = {name: getattr(args, renamed.get(name, name)) for name in defaulted}
    assert config(**given, **parsed) == config(**given)
    assert all(type(v) is type(getattr(config, k)) for k, v in parsed.items())
