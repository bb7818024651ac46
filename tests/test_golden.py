"""Golden digests: a small CLI chain must reproduce every artifact byte for byte.

The chain runs every subcommand through ``hemtriage.cli.main`` at a small
scale, plus the scan-label broadcast path of ``stack-train --manifest`` and
the ``mean_type_bacc`` objective of ``optimize``. Each artifact's sha256 is
compared with a digest recorded from the same chain. The digests pin this
platform's numpy float results (x86-64, numpy 2.x): a different BLAS or libm
may change the last bits of a probability and so every downstream digest.
A refactor that must not change outputs keeps this test green; a change that
alters outputs on purpose re-records the table and says why.
"""

import hashlib
import warnings

from hemtriage.cli import main


def artifact_digests(root) -> dict[str, str]:
    """Run the chain under ``root``; sha256 of every file it wrote, by relative path."""
    data = root / "data"
    manifest = str(data / "manifest.csv")
    slice_labels = str(data / "slice_labels.csv")
    oof_probs = str(root / "oof" / "oof_probs.csv")
    refined = str(root / "refined.csv")
    stages = [
        ["synth", "--out", str(data), "--scans", "12", "--seed", "3",
         "--positive-fraction", "0.5", "--slices-min", "6", "--slices-max", "8",
         "--height", "24", "--width", "24", "--distractor-fraction", "0.3"],
        ["slice-train", "--manifest", manifest, "--slice-labels", slice_labels,
         "--rounds", "15", "--seed", "3", "--out", str(root / "slice_model.json")],
        ["slice-predict", "--model", str(root / "slice_model.json"),
         "--manifest", manifest, "--out", str(root / "probs.csv")],
        ["oof", "--manifest", manifest, "--slice-labels", slice_labels, "--folds", "3",
         "--rounds", "15", "--seed", "3", "--out", str(root / "oof")],
        ["stack-train", "--oof", oof_probs, "--slice-labels", slice_labels,
         "--delta-s", "2", "--rounds", "10", "--seed", "3", "--out", str(root / "stacker.json")],
        ["stack-train", "--oof", oof_probs, "--manifest", manifest,
         "--delta-s", "1", "--rounds", "10", "--seed", "3",
         "--out", str(root / "stacker_broadcast.json")],
        ["stack-apply", "--model", str(root / "stacker.json"),
         "--probs", str(root / "probs.csv"), "--out", refined],
        ["optimize", "--manifest", manifest, "--probs", refined,
         "--budget", "30", "--seed", "3", "--out", str(root / "thresholds.json")],
        ["optimize", "--manifest", manifest, "--probs", refined, "--objective", "mean_type_bacc",
         "--budget", "30", "--seed", "3", "--out", str(root / "thresholds_mean_type.json")],
        ["evaluate", "--manifest", manifest, "--probs", refined,
         "--thresholds", str(root / "thresholds.json"), "--out", str(root / "eval")],
        ["report", "--manifest", manifest, "--probs", refined,
         "--thresholds", str(root / "thresholds.json"), "--out", str(root / "report")],
    ]
    for argv in stages:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == 0, argv[0]
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


GOLDEN = {
    "data/manifest.csv": "e1b139de3f1bb62229e95ace40901b59537dad91a46e8228005089318412d3d4",
    "data/slice_labels.csv": "830533c7589addce2dc125f45fb0b20c0592e614d188e796f02c95dd47fd2eda",
    "data/volumes/s0000.ctv": "cdeff9622b38023912628324d5648e406f96d8614ece1f1e9eea08bfbf774b42",
    "data/volumes/s0001.ctv": "01d423d725f966561e774ef5b084255426741ecc4f1862b0dc6636ec4404ba71",
    "data/volumes/s0002.ctv": "8c9883582b5ff637b1a91f075a7cbd3f39da7dc09de3a25df6c00eef37c6539b",
    "data/volumes/s0003.ctv": "683f322b0be5735affc9380ddca17e367bafe40f071686ea3d46f1c857f5f2e6",
    "data/volumes/s0004.ctv": "3d8634cc6f20dd943dfb242e80ec190b518465242b7ee9b23fe248b818990d74",
    "data/volumes/s0005.ctv": "de6557a19791cccf716c868f1c65be3663a620ec22f2e2c79442c490980df393",
    "data/volumes/s0006.ctv": "501429a6d597bd2fe0f75a76c9700411a0efd3f6e1b78ddaa9d60600112eb9a0",
    "data/volumes/s0007.ctv": "9ca13aa601324b8f812e85e83c6b73f6e554de46ff4fef1383a3d14f3e57cb49",
    "data/volumes/s0008.ctv": "7ebc077d0824ea7caa8d5d9a546f72eeaab99f50f0eb3e7ad601b2e0cc71d7d9",
    "data/volumes/s0009.ctv": "ebf7564b67b199da7f44a163e994bf9384fcefd029721784dcb049109ec3a7f2",
    "data/volumes/s0010.ctv": "1ff9b255c52bf6733b8582103ee22a19a23f2af63f4f4edd4a0c8e6cbb63f245",
    "data/volumes/s0011.ctv": "2ff25e78998bd98a3e6c91c8faaf60d22c13002b3ce2fdd6fb4cba16579438c5",
    "eval/report.csv": "ca6219687997026cdfb9081e4fd24efe46c906811b2df4ed11d4137be33c6533",
    "eval/report.txt": "6948f70970ca87c7ab1ddce0c9f7a92b083ac66bbb929ad92dfd0018694ef5c4",
    "oof/folds.csv": "5aec209728f5d9ab172828d365fdf6d5c96a79fd9fafd1e2699863d9ba64fede",
    "oof/oof_probs.csv": "31df2f315f50b2fff45dcb7ba7aa2c924edb7719c13b18cbf729b8138713f0a0",
    "probs.csv": "d6553ef7dddc1fe5b91aef77c888b9cd797b1d8e998d8c27573f71c095fc1f04",
    "refined.csv": "41d169db318cc5ab2a367dabc86fd74e7d9abacf3b596544b96f5ece05042fd4",
    "report/boxplot.svg": "e03b31d8803137ba019637f2efe7b3481ef85f4241068cdb2dfc3834f5e9b67e",
    "report/boxplot_stats.csv": "a32b42ef2119790c9fb72b466b0291d2316648f7677c5b4ac1e2e6770f3d190a",
    "report/ci_summary.csv": "6512ebdfbcf214d972dae53691ddae53789e8dd0c1b771725700f41df756959d",
    "report/cumulative_any.svg": "5ea23f1ee159cdd4be96d5448b88c2431137f2f4819fb8ad622859de257542c5",
    "report/cumulative_curves.csv": "b3a7f8267693c8204acdeabc20da32edc250cfa7e853737cd6e954395b26f326",
    "report/cumulative_edh.svg": "8f91e47b2bc30235cec4f741da4c7cf655c38d0e3df91c421fa98093bc0628ce",
    "report/cumulative_iph.svg": "b86257d20f4583496ce94701aa3a1253457e6a2ac6c48fabef918de317e18922",
    "report/cumulative_ivh.svg": "5b32e7c4f04ef6d932d582fd12061d96136461734ea618b967b7882b4c2f9837",
    "report/cumulative_sah.svg": "8075e45fcaf426d40aa053d575f8329efab9a75df2890312b46f391a52439f60",
    "report/cumulative_sdh.svg": "67213c2923dcb3feea108863917ddb13d959ff48fae781aece5c42cd6c7946ba",
    "report/roc_curves.csv": "77f34d85fb4f5ceb0456a03dd0256edf3594b6328eef3021c01bedeeb976180a",
    "report/roc_curves.svg": "67eecb14c2e064daf9b6412eddd0ed35c6bab67376dbee277644b15790230cd6",
    "slice_model.json": "ee1615e6dbffce2eba43f19730a872eca88f4a045a0f915fdecf52127c7653a9",
    "stacker.json": "f54939cbb4d91735b032e9f7329cf8f016f4a069d94c44946dd4e5c1e6ec99bd",
    "stacker_broadcast.json": "3fd28f15c2052f7a1b38be521879adfcd05da5bc0601764faf03308f1465d7f7",
    "thresholds.json": "a7a527a4508bbf0ca91d085b5ac21d30b1a1b074d2989ff11184a2d87459659a",
    "thresholds_mean_type.json": "2688556fb9dc2a8c0e99f2a76f557c7254ffbc585fda8d8a6551b7b1857959b0",
}


def test_chain_reproduces_golden_digests(tmp_path):
    # On failure pytest lists each artifact whose digest differs, with both values.
    assert artifact_digests(tmp_path) == GOLDEN
