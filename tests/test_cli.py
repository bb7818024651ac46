import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hemtriage
from hemtriage import gbdt, slicemodel, stacker
from hemtriage.cli import main
from hemtriage.metrics import REPORT_LABELS
from hemtriage.slicemodel import extract_features, load_slice_probs, save_slice_probs
from hemtriage.volume import HEMORRHAGE_TYPES, load_slice_labels, save_slice_labels, store_volume

from conftest import make_volume


def run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One small pipeline run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert run(["synth", "--out", str(data), "--scans", "36", "--seed", "5",
                "--positive-fraction", "0.5", "--slices-min", "6", "--slices-max", "9",
                "--distractor-fraction", "0.3"]) == 0
    manifest = str(data / "manifest.csv")
    slice_labels = str(data / "slice_labels.csv")
    assert run(["slice-train", "--manifest", manifest, "--slice-labels", slice_labels,
                "--rounds", "25", "--seed", "1", "--out", str(root / "slice_model.json")]) == 0
    assert run(["slice-predict", "--model", str(root / "slice_model.json"),
                "--manifest", manifest, "--out", str(root / "probs.csv")]) == 0
    assert run(["oof", "--manifest", manifest, "--slice-labels", slice_labels,
                "--folds", "3", "--rounds", "25", "--seed", "1",
                "--out", str(root / "oof")]) == 0
    assert run(["stack-train", "--oof", str(root / "oof" / "oof_probs.csv"),
                "--slice-labels", slice_labels, "--delta-s", "2", "--rounds", "30",
                "--seed", "1", "--out", str(root / "stacker.json")]) == 0
    assert run(["stack-apply", "--model", str(root / "stacker.json"),
                "--probs", str(root / "oof" / "oof_probs.csv"),
                "--out", str(root / "refined.csv")]) == 0
    assert run(["optimize", "--manifest", manifest, "--probs", str(root / "refined.csv"),
                "--budget", "40", "--seed", "1", "--out", str(root / "thresholds.json")]) == 0
    assert run(["evaluate", "--manifest", manifest, "--probs", str(root / "refined.csv"),
                "--thresholds", str(root / "thresholds.json"),
                "--out", str(root / "eval")]) == 0
    assert run(["report", "--manifest", manifest, "--probs", str(root / "refined.csv"),
                "--thresholds", str(root / "thresholds.json"),
                "--out", str(root / "report")]) == 0
    return root


class TestPipelineArtifacts:
    def test_all_outputs_exist(self, pipeline_dir):
        expected = [
            "data/manifest.csv", "data/slice_labels.csv", "slice_model.json", "probs.csv",
            "oof/folds.csv", "oof/oof_probs.csv", "stacker.json", "refined.csv",
            "thresholds.json", "eval/report.csv", "eval/report.txt",
            "report/roc_curves.csv", "report/roc_curves.svg", "report/cumulative_curves.csv",
            "report/cumulative_any.svg", "report/boxplot_stats.csv", "report/boxplot.svg",
            "report/ci_summary.csv",
        ]
        for rel in expected:
            assert (pipeline_dir / rel).exists(), rel

    def test_report_csv_is_six_rows(self, pipeline_dir):
        lines = (pipeline_dir / "eval" / "report.csv").read_text().splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("Hemorrhage,TP,FN,TN,FP")

    def test_no_temp_files_left(self, pipeline_dir):
        stray = [p for p in pipeline_dir.rglob("*.tmp")]
        assert stray == []

    def test_svg_is_wellformed_enough(self, pipeline_dir):
        text = (pipeline_dir / "report" / "roc_curves.svg").read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


class TestOneClassLabel:
    """A cohort with no EDH-positive scan: EDH has no AUC, ROC curve or
    positive-class box, and every other statistic is still reported."""

    @pytest.fixture(scope="class")
    def no_edh(self, pipeline_dir, tmp_path_factory):
        root = tmp_path_factory.mktemp("no_edh")
        rows = list(csv.DictReader((pipeline_dir / "data" / "manifest.csv").read_text()
                                   .splitlines()))
        kept = [row for row in rows if row["edh"] == "0"]
        assert 0 < len(kept) < len(rows)
        manifest = root / "manifest.csv"
        with open(manifest, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(kept)
        probs = load_slice_probs(pipeline_dir / "refined.csv")
        save_slice_probs({row["scan_id"]: probs[row["scan_id"]] for row in kept},
                         root / "probs.csv")
        judged = ["--manifest", str(manifest), "--probs", str(root / "probs.csv"),
                  "--thresholds", str(pipeline_dir / "thresholds.json")]
        assert run(["evaluate", *judged, "--out", str(root / "eval")]) == 0
        assert run(["report", *judged, "--out", str(root / "report")]) == 0
        return root

    def test_evaluate_writes_na_auc(self, no_edh):
        rows = {line.split(",")[0]: line.split(",")
                for line in (no_edh / "eval" / "report.csv").read_text().splitlines()}
        auc = rows["Hemorrhage"].index("AUC")
        assert rows["EDH"][auc] == "NA"
        assert all(rows[label][auc] != "NA" for label in ("SDH", "SAH", "IVH", "IPH", "Any"))

    def test_report_writes_every_artifact_without_edh_curves(self, no_edh):
        report = no_edh / "report"
        expected = {"roc_curves.csv", "roc_curves.svg", "cumulative_curves.csv",
                    "boxplot_stats.csv", "boxplot.svg", "ci_summary.csv",
                    *(f"cumulative_{label}.svg" for label in REPORT_LABELS)}
        assert len(expected) == 12
        assert {path.name for path in report.iterdir()} == expected
        roc_labels = {row["label"] for row in
                      csv.DictReader((report / "roc_curves.csv").read_text().splitlines())}
        assert roc_labels == set(REPORT_LABELS) - {"edh"}
        boxes = {(row["label"], row["truth_class"]) for row in
                 csv.DictReader((report / "boxplot_stats.csv").read_text().splitlines())}
        assert boxes == {(label, truth_class) for label in REPORT_LABELS
                         for truth_class in "01"} - {("edh", "1")}


class TestFlagErrors:
    @pytest.mark.parametrize("windows", ["40:80,80:x,40:380", "40:80,80:200"])
    def test_bad_windows_rejected(self, pipeline_dir, tmp_path, capsys, windows):
        out = tmp_path / "model.json"
        assert run(["slice-train", "--manifest", str(pipeline_dir / "data" / "manifest.csv"),
                    "--windows", windows, "--rounds", "2", "--out", str(out)]) == 1
        assert "--windows" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_probs_needs_thresholds(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run(["evaluate", "--manifest", str(pipeline_dir / "data" / "manifest.csv"),
                    "--probs", str(pipeline_dir / "refined.csv"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--probs" in err and "--thresholds" in err
        assert not out.exists()


class TestStackTrainFallback:
    def test_scan_labels_broadcast_when_no_slice_csv(self, pipeline_dir, tmp_path):
        # Without --slice-labels the scan label is broadcast to every slice
        # (with a warning); training still succeeds.
        out = tmp_path / "broadcast_stacker.json"
        with pytest.warns(UserWarning, match="broadcasting"):
            code = main(["stack-train", "--oof", str(pipeline_dir / "oof" / "oof_probs.csv"),
                         "--manifest", str(pipeline_dir / "data" / "manifest.csv"),
                         "--delta-s", "1", "--rounds", "5", "--seed", "0", "--out", str(out)])
        assert code == 0 and out.exists()

    def test_oof_scan_outside_manifest_rejected(self, pipeline_dir, tmp_path, capsys):
        probs = load_slice_probs(pipeline_dir / "oof" / "oof_probs.csv")
        probs["ghost"] = probs["s0000"]
        path = tmp_path / "oof.csv"
        save_slice_probs(probs, path)
        out = tmp_path / "stacker.json"
        assert run(["stack-train", "--oof", str(path),
                    "--manifest", str(pipeline_dir / "data" / "manifest.csv"),
                    "--delta-s", "1", "--rounds", "2", "--out", str(out)]) == 1
        assert (f"{path}: OOF CSV has 1 scans not in the manifest: ['ghost']"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_slice_labels_with_manifest_rejected(self, pipeline_dir, tmp_path, capsys):
        # --slice-labels wins, so the manifest would go unread: here one that
        # names a ghost scan and none of the OOF scans, rejected when alone.
        manifest = tmp_path / "m.csv"
        manifest.write_text("scan_id,patient_id,path,edh,sdh,sah,ivh,iph\n"
                            "ghost,pg,x,0,0,0,0,0\n")
        out = tmp_path / "stacker.json"
        assert run(["stack-train", "--oof", str(pipeline_dir / "oof" / "oof_probs.csv"),
                    "--slice-labels", str(pipeline_dir / "data" / "slice_labels.csv"),
                    "--manifest", str(manifest), "--delta-s", "1", "--rounds", "2",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--slice-labels" in err and "--manifest" in err
        assert not out.exists()

    def test_needs_some_label_source(self, pipeline_dir, tmp_path, capsys):
        code = run(["stack-train", "--oof", str(pipeline_dir / "oof" / "oof_probs.csv"),
                    "--delta-s", "1", "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "slice-labels" in capsys.readouterr().err


class TestOofSliceLabelsContract:
    """stack-train --slice-labels must label every slice of every OOF scan."""

    def rewrite_labels(self, pipeline_dir, tmp_path, edit):
        labels = load_slice_labels(pipeline_dir / "data" / "slice_labels.csv")
        edit(labels)
        path = tmp_path / "slice_labels.csv"
        save_slice_labels(labels, path)
        return path

    def stack_train(self, pipeline_dir, labels, out):
        return run(["stack-train", "--oof", str(pipeline_dir / "oof" / "oof_probs.csv"),
                    "--slice-labels", str(labels), "--delta-s", "1", "--rounds", "2",
                    "--out", str(out)])

    def test_oof_scan_missing_from_labels(self, pipeline_dir, tmp_path, capsys):
        labels = self.rewrite_labels(pipeline_dir, tmp_path, lambda labels: labels.pop("s0003"))
        out = tmp_path / "stacker.json"
        assert self.stack_train(pipeline_dir, labels, out) == 1
        oof = pipeline_dir / "oof" / "oof_probs.csv"
        assert (f"{labels}: slice label CSV lacks 1 scans of the OOF CSV {oof}: ['s0003']"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_slice_count_mismatch(self, pipeline_dir, tmp_path, capsys):
        labels = self.rewrite_labels(pipeline_dir, tmp_path,
                                     lambda labels: labels.update(s0005=labels["s0005"][:-1]))
        out = tmp_path / "stacker.json"
        assert self.stack_train(pipeline_dir, labels, out) == 1
        oof = pipeline_dir / "oof" / "oof_probs.csv"
        slices = load_slice_probs(oof)["s0005"].shape[0]
        assert (f"scan s0005: {slices} slices in the OOF CSV {oof} vs {slices - 1} in {labels}"
                in capsys.readouterr().err)
        assert not out.exists()


class TestStackApplyValidation:
    def test_wrong_delta_s_exits_nonzero_without_output(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run(["stack-apply", "--model", str(pipeline_dir / "stacker.json"),
                    "--probs", str(pipeline_dir / "oof" / "oof_probs.csv"),
                    "--delta-s", "4", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "delta" in capsys.readouterr().err.lower()


    def test_version_3_stacker_exits_nonzero_naming_the_file(self, pipeline_dir, tmp_path,
                                                             capsys):
        # Version 3 stored every model, oblivious ones too, as heap-layout nodes.
        ensemble, delta_s = stacker.load_stacker_model(pipeline_dir / "stacker.json")
        nodes = gbdt.GbdtEnsemble(groups=tuple(
            tuple(gbdt.GbdtModel.from_trees(model.base_score, model.trees, model.num_features)
                  for model in group) for group in ensemble.groups))
        path = tmp_path / "stacker_v3.json"
        gbdt.save_ensemble(nodes, "stacker-model", 3, {"delta_s": delta_s}, path)
        out = tmp_path / "never.csv"
        assert run(["stack-apply", "--model", str(path), "--probs",
                    str(pipeline_dir / "oof" / "oof_probs.csv"), "--out", str(out)]) == 1
        assert not out.exists()
        assert f"{path}: unsupported version 3" in capsys.readouterr().err


class TestJsonInputErrors:
    @pytest.mark.parametrize("command", ["stack-apply", "slice-predict", "evaluate"])
    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"format": '])
    def test_bad_json_input_names_file(self, pipeline_dir, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        manifest = str(pipeline_dir / "data" / "manifest.csv")
        argv = {
            "stack-apply": ["--model", str(bad), "--probs",
                            str(pipeline_dir / "oof" / "oof_probs.csv")],
            "slice-predict": ["--model", str(bad), "--manifest", manifest],
            "evaluate": ["--thresholds", str(bad), "--manifest", manifest,
                         "--probs", str(pipeline_dir / "refined.csv")],
        }[command]
        out = tmp_path / "out"
        assert run([command, *argv, "--out", str(out)]) == 1
        assert not out.exists()
        assert str(bad) in capsys.readouterr().err


class TestOptimizeSummary:
    def test_prints_plain_float_thresholds(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "thresholds.json"
        capsys.readouterr()
        assert run(["optimize", "--manifest", str(pipeline_dir / "data" / "manifest.csv"),
                    "--probs", str(pipeline_dir / "refined.csv"), "--budget", "12",
                    "--seed", "1", "--out", str(out)]) == 0
        line = capsys.readouterr().out
        printed = [float(cell) for cell in line[line.index("[") + 1:line.index("]")].split(", ")]
        stored = json.loads(out.read_text())
        assert printed == [round(stored[f"t_{t}"], 4) for t in HEMORRHAGE_TYPES]


class TestProbsManifestContract:
    """The probability CSV must cover exactly the manifest's scans."""

    def rewrite_probs(self, pipeline_dir, tmp_path, edit):
        probs = load_slice_probs(pipeline_dir / "refined.csv")
        edit(probs)
        path = tmp_path / "edited.csv"
        save_slice_probs(probs, path)
        return path

    def test_manifest_scan_missing_from_probs(self, pipeline_dir, tmp_path, capsys):
        path = self.rewrite_probs(pipeline_dir, tmp_path, lambda probs: probs.pop("s0003"))
        assert run(["evaluate", "--manifest", str(pipeline_dir / "data" / "manifest.csv"),
                    "--probs", str(path), "--thresholds", str(pipeline_dir / "thresholds.json"),
                    "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "lacks 1 manifest scans: ['s0003']" in err
        assert not (tmp_path / "eval").exists()

    def test_probs_scan_missing_from_manifest(self, pipeline_dir, tmp_path, capsys):
        def add_strangers(probs):
            probs["x1"] = probs["s0001"]
            probs["x0"] = probs["s0000"]

        path = self.rewrite_probs(pipeline_dir, tmp_path, add_strangers)
        assert run(["optimize", "--manifest", str(pipeline_dir / "data" / "manifest.csv"),
                    "--probs", str(path), "--budget", "12",
                    "--out", str(tmp_path / "thresholds.json")]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "2 scans not in the manifest: ['x1', 'x0']" in err
        assert not (tmp_path / "thresholds.json").exists()

    def test_report_checks_probs_against_manifest(self, pipeline_dir, tmp_path, capsys):
        path = self.rewrite_probs(pipeline_dir, tmp_path, lambda probs: probs.pop("s0002"))
        assert run(["report", "--manifest", str(pipeline_dir / "data" / "manifest.csv"),
                    "--probs", str(path), "--thresholds", str(pipeline_dir / "thresholds.json"),
                    "--out", str(tmp_path / "report")]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "lacks 1 manifest scans: ['s0002']" in err
        assert not (tmp_path / "report").exists()


class TestSliceLabelsManifestContract:
    """A per-slice label CSV may name only manifest scans; manifest scans it
    lacks broadcast their scan label."""

    @pytest.mark.parametrize("command", ["slice-train", "oof"])
    def test_label_scan_outside_manifest_rejected(self, pipeline_dir, tmp_path, capsys, command):
        labels = tmp_path / "slice_labels.csv"
        labels.write_text((pipeline_dir / "data" / "slice_labels.csv").read_text()
                          + "ghost,0,0,1,0,0,0\nghost,1,0,0,0,0,0\n")
        out = tmp_path / "out"
        argv = [command, "--manifest", str(pipeline_dir / "data" / "manifest.csv"),
                "--slice-labels", str(labels), "--rounds", "2", "--out", str(out)]
        assert run(argv + (["--folds", "3"] if command == "oof" else [])) == 1
        assert (f"{labels}: slice label CSV has 1 scans not in the manifest: ['ghost']"
                in capsys.readouterr().err)
        assert not out.exists()


class TestVolumeContracts:
    """Commands that load volumes tie each volume file to its manifest row,
    to its rows in the per-slice label CSV and to one slice shape (the
    histogram features count pixels)."""

    @staticmethod
    def argv(command, pipeline_dir, manifest, out):
        extra = {"slice-train": ["--rounds", "2"], "oof": ["--folds", "3", "--rounds", "2"],
                 "slice-predict": ["--model", str(pipeline_dir / "slice_model.json")]}[command]
        return [command, "--manifest", str(manifest), "--volumes", str(pipeline_dir / "data"),
                *extra, "--out", str(out)]

    @pytest.mark.parametrize("command", ["slice-train", "oof", "slice-predict"])
    def test_volume_of_another_scan_rejected(self, pipeline_dir, tmp_path, capsys, command):
        text = (pipeline_dir / "data" / "manifest.csv").read_text()
        rows = list(csv.DictReader(text.splitlines()))
        wrong = rows[1]["path"]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(text.replace(rows[0]["path"], wrong, 1))
        out = tmp_path / "out"
        assert run(self.argv(command, pipeline_dir, manifest, out)) == 1
        assert (f"{wrong}: file scan_id 's0001' disagrees with manifest 's0000'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["slice-train", "oof", "slice-predict"])
    def test_volume_of_another_patient_rejected(self, pipeline_dir, tmp_path, capsys, command):
        # oof groups folds by the manifest's patient ids, so a row that names
        # another patient than its file would split one patient across folds.
        text = (pipeline_dir / "data" / "manifest.csv").read_text()
        row = next(csv.DictReader(text.splitlines()))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(text.replace(f"{row['scan_id']},{row['patient_id']},",
                                         f"{row['scan_id']},pOTHER,", 1))
        out = tmp_path / "out"
        assert run(self.argv(command, pipeline_dir, manifest, out)) == 1
        assert (f"{row['path']}: file patient_id {row['patient_id']!r} disagrees with manifest "
                "'pOTHER'" in capsys.readouterr().err)
        assert not out.exists()

    @staticmethod
    def drop_last_slice(labels):
        labels["s0005"] = labels["s0005"][:-1]
        return "s0005", "slice label matrix length must match the slice count"

    @staticmethod
    def mark_a_negative_type(labels):
        scan_id = next(s for s, matrix in labels.items() if not matrix[:, 0].any())
        labels[scan_id][0, 0] = True
        return scan_id, "scan-level labels must equal the OR over slice labels"

    @pytest.mark.parametrize("command", ["slice-train", "oof"])
    @pytest.mark.parametrize("edit", ["drop_last_slice", "mark_a_negative_type"])
    def test_slice_labels_must_agree_with_volume_and_manifest(self, pipeline_dir, tmp_path,
                                                             capsys, command, edit):
        labels = load_slice_labels(pipeline_dir / "data" / "slice_labels.csv")
        scan_id, message = getattr(self, edit)(labels)
        path = tmp_path / "slice_labels.csv"
        save_slice_labels(labels, path)
        out = tmp_path / "out"
        argv = self.argv(command, pipeline_dir, pipeline_dir / "data" / "manifest.csv", out)
        assert run(argv + ["--slice-labels", str(path)]) == 1
        assert f"{path}: scan {scan_id}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["slice-train", "oof", "slice-predict"])
    def test_slice_shape_must_agree(self, pipeline_dir, tmp_path, capsys, command):
        # slice-train and oof read the 48x48 pipeline scans plus one 24x24
        # scan; slice-predict runs the 48x48 model on a 24x24 cohort.
        small = tmp_path / "small.ctv"
        store_volume(make_volume(scan_id="small", patient_id="psmall", num_slices=3,
                                 height=24, width=24, seed=1), small)
        lines = (pipeline_dir / "data" / "manifest.csv").read_text().splitlines()
        manifest = tmp_path / "manifest.csv"
        kept = lines[:1] if command == "slice-predict" else lines
        manifest.write_text("\n".join([*kept, f"small,psmall,{small},0,0,0,0,0"]) + "\n")
        out = tmp_path / "out"
        assert run(self.argv(command, pipeline_dir, manifest, out)) == 1
        source = pipeline_dir / "slice_model.json" if command == "slice-predict" else manifest
        assert f"{source}: scan small has 24x24 slices, expected 48x48" in capsys.readouterr().err
        assert not out.exists()


class TestOofFeaturizesOnce:
    def test_each_slice_featurized_once(self, pipeline_dir, tmp_path, monkeypatch):
        calls = []

        def counting(image, position, specs=slicemodel.DEFAULT_WINDOWS):
            calls.append(len(position))
            return extract_features(image, position, specs)

        monkeypatch.setattr(slicemodel, "extract_features", counting)
        assert run(["oof", "--manifest", str(pipeline_dir / "data" / "manifest.csv"),
                    "--slice-labels", str(pipeline_dir / "data" / "slice_labels.csv"),
                    "--folds", "3", "--rounds", "2", "--out", str(tmp_path / "oof")]) == 0
        slices = sum(rows.shape[0] for rows in
                     load_slice_probs(tmp_path / "oof" / "oof_probs.csv").values())
        assert sum(calls) == slices


class TestEvaluateWithDecisions:
    def test_replays_published_external_any_row(self, tmp_path):
        # A decisions CSV hand-built to carry the published external-set "Any"
        # counts: tp=615, fn=59, tn=4978, fp=313. Positives use one type so
        # the any-row confusion matches exactly.
        counts = {"tp": 615, "fn": 59, "tn": 4978, "fp": 313}
        manifest_path = tmp_path / "manifest.csv"
        decisions_path = tmp_path / "decisions.csv"
        with open(manifest_path, "w", newline="") as mf, \
                open(decisions_path, "w", newline="") as df:
            mw = csv.writer(mf)
            dw = csv.writer(df)
            mw.writerow(("scan_id", "patient_id", "path") + HEMORRHAGE_TYPES)
            dw.writerow(("scan_id",) + HEMORRHAGE_TYPES)
            index = 0
            for kind, n in counts.items():
                truth = 1 if kind in ("tp", "fn") else 0
                decided = 1 if kind in ("tp", "fp") else 0
                for _ in range(n):
                    sid = f"s{index:05d}"
                    mw.writerow((sid, f"p{index:05d}", "none") + (truth, 0, 0, 0, 0))
                    dw.writerow((sid,) + (decided, 0, 0, 0, 0))
                    index += 1
        out = tmp_path / "eval"
        assert run(["evaluate", "--manifest", str(manifest_path),
                    "--decisions", str(decisions_path), "--out", str(out)]) == 0
        rows = {line.split(",")[0]: line.split(",")
                for line in (out / "report.csv").read_text().splitlines()[1:]}
        any_row = rows["Any"]
        assert any_row[1:5] == ["615", "59", "4978", "313"]
        # Matches the published percentage cells for this row.
        assert any_row[5] == "91.2"   # SEN 615/674
        assert any_row[6] == "94.1"   # SPEC
        assert any_row[7] == "66.3"   # PPV
        assert any_row[8] == "98.8"   # NPV
        assert any_row[10] == "93.8"  # Acc
        assert any_row[11] == "92.7"  # BAcc
        assert any_row[12] == "74.5"  # MCC
        assert any_row[13] == "76.8"  # F1

    def test_repeated_scan_id_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("scan_id,patient_id,path,edh,sdh,sah,ivh,iph\n"
                            "s0,p0,x,1,0,0,0,0\ns1,p1,y,0,0,0,0,0\n")
        decisions = tmp_path / "decisions.csv"
        decisions.write_text("scan_id,edh,sdh,sah,ivh,iph\n"
                             "s0,1,0,0,0,0\ns1,0,0,0,0,0\ns0,0,0,0,0,0\n")
        out = tmp_path / "eval"
        assert run(["evaluate", "--manifest", str(manifest), "--decisions", str(decisions),
                    "--out", str(out)]) == 1
        assert "decisions.csv: line 4: duplicate scan_id 's0'" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_outside_manifest_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("scan_id,patient_id,path,edh,sdh,sah,ivh,iph\n"
                            "s0,p0,x,1,0,0,0,0\ns1,p1,y,0,0,0,0,0\n")
        decisions = tmp_path / "decisions.csv"
        decisions.write_text("scan_id,edh,sdh,sah,ivh,iph\n"
                             "s0,1,0,0,0,0\ns1,0,0,0,0,0\nghost,1,1,1,1,1\n")
        out = tmp_path / "eval"
        assert run(["evaluate", "--manifest", str(manifest), "--decisions", str(decisions),
                    "--out", str(out)]) == 1
        assert (f"{decisions}: decisions CSV has 1 scans not in the manifest: ['ghost']"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_thresholds_with_decisions_rejected(self, tmp_path, capsys):
        # Decisions are already binary, so a threshold file would go unread.
        manifest = tmp_path / "m.csv"
        manifest.write_text("scan_id,patient_id,path,edh,sdh,sah,ivh,iph\n"
                            "s0,p0,x,1,0,0,0,0\ns1,p1,y,0,0,0,0,0\n")
        decisions = tmp_path / "decisions.csv"
        decisions.write_text("scan_id,edh,sdh,sah,ivh,iph\ns0,1,0,0,0,0\ns1,0,0,0,0,0\n")
        not_json = tmp_path / "thresholds.json"
        not_json.write_text("not json\n")
        out = tmp_path / "eval"
        assert run(["evaluate", "--manifest", str(manifest), "--decisions", str(decisions),
                    "--thresholds", str(not_json), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--decisions" in err and "--thresholds" in err
        assert not out.exists()

    def test_requires_exactly_one_input_mode(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("scan_id,patient_id,path,edh,sdh,sah,ivh,iph\ns0,p0,x,0,0,0,0,0\n")
        assert run(["evaluate", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
        assert "exactly one" in capsys.readouterr().err


class TestDeterminism:
    def test_slice_predict_idempotent(self, pipeline_dir, tmp_path):
        out = tmp_path / "again.csv"
        assert run(["slice-predict", "--model", str(pipeline_dir / "slice_model.json"),
                    "--manifest", str(pipeline_dir / "data" / "manifest.csv"),
                    "--out", str(out)]) == 0
        assert out.read_bytes() == (pipeline_dir / "probs.csv").read_bytes()

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert run(["slice-predict", "--model", str(tmp_path / "nope.json"),
                    "--manifest", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_importing_the_cli_leaves_scipy_unimported(pipeline_dir, tmp_path):
    # The package depends on numpy only: importing the CLI imports no scipy,
    # and with scipy made unimportable, optimize and evaluate still exit 0.
    src = str(Path(hemtriage.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    manifest = str(pipeline_dir / "data" / "manifest.csv")
    refined = str(pipeline_dir / "refined.csv")
    thresholds = str(tmp_path / "thresholds.json")
    commands = [["optimize", "--manifest", manifest, "--probs", refined, "--budget", "20",
                 "--seed", "1", "--out", thresholds],
                ["evaluate", "--manifest", manifest, "--probs", refined,
                 "--thresholds", thresholds, "--out", str(tmp_path / "eval")]]
    code = ("import json, sys, hemtriage.cli\n"
            "if 'scipy' in sys.modules: sys.exit('importing the CLI imported scipy')\n"
            "sys.modules['scipy'] = None\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if hemtriage.cli.main(argv): sys.exit(f'{argv[0]} failed without scipy')\n")
    result = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "eval" / "report.csv").is_file()
