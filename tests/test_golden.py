"""Golden digests: small CLI chains must reproduce every artifact byte for byte.

The first chain runs every subcommand through ``hemtriage.cli.main`` at a
small scale, plus the scan-label broadcast path of ``stack-train --manifest``
and the ``mean_type_bacc`` objective of ``optimize``. A change of the order
in which leafwise growth splits its open leaves leaves that chain's outputs
unchanged; the second chain doubles the cohort and stops after stacking, and
there the same change alters both stacker files.

Each artifact's sha256 is compared with a digest recorded from the same
chain. The digests pin this platform's numpy float results (x86-64, numpy
2.x): a different BLAS or libm may change the last bits of a probability and
so every downstream digest. A refactor that must not change outputs keeps
this test green; a change that alters outputs on purpose re-records the
tables and says why.
"""

import hashlib
import warnings

from hemtriage.cli import main


def run_chain(root, stages) -> dict[str, str]:
    """Run ``stages`` through the CLI; sha256 of every file under ``root``, by relative path."""
    for argv in stages:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == 0, argv[0]
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def full_chain(root) -> list[list[str]]:
    data = root / "data"
    manifest = str(data / "manifest.csv")
    slice_labels = str(data / "slice_labels.csv")
    oof_probs = str(root / "oof" / "oof_probs.csv")
    refined = str(root / "refined.csv")
    return [
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


def growth_chain(root) -> list[list[str]]:
    data = root / "data"
    manifest = str(data / "manifest.csv")
    slice_labels = str(data / "slice_labels.csv")
    oof_probs = str(root / "oof" / "oof_probs.csv")
    return [
        ["synth", "--out", str(data), "--scans", "24", "--seed", "3",
         "--positive-fraction", "0.5", "--slices-min", "6", "--slices-max", "8",
         "--height", "24", "--width", "24", "--distractor-fraction", "0.3"],
        ["oof", "--manifest", manifest, "--slice-labels", slice_labels, "--folds", "3",
         "--rounds", "15", "--seed", "3", "--out", str(root / "oof")],
        ["stack-train", "--oof", oof_probs, "--slice-labels", slice_labels,
         "--delta-s", "1", "--rounds", "10", "--seed", "3", "--out", str(root / "stacker.json")],
        ["stack-train", "--oof", oof_probs, "--manifest", manifest,
         "--delta-s", "1", "--rounds", "10", "--seed", "3",
         "--out", str(root / "stacker_broadcast.json")],
        ["stack-apply", "--model", str(root / "stacker.json"),
         "--probs", oof_probs, "--out", str(root / "refined.csv")],
    ]


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


GOLDEN_GROWTH = {
    "data/manifest.csv": "6fccab8d63e1cc5e991b958508e9d55e033aed00df19a8b4f8d322fb2a3a9fc2",
    "data/slice_labels.csv": "525df8e93fa1ed89d69e29dbcc1101a5c496d2b566835ca1ed1aa540b7d43981",
    "data/volumes/s0000.ctv": "1449ce80964e9c8ecadce0e1675ec2235589f24ebfcc86d5038a1720c14c7b5c",
    "data/volumes/s0001.ctv": "a5c75dbcdbc163019effc43970bf48be6b48e8faf8169bd1d3ad4fd6515c7005",
    "data/volumes/s0002.ctv": "06ea61c09040c1ccb06840a4e5c24c856344ef89c29d19a079dd64d1117bc3ec",
    "data/volumes/s0003.ctv": "5892ff70ff6bc2292d74ec33ef6f825ea2d41905ed969b3f5cc94cdf4b832d85",
    "data/volumes/s0004.ctv": "8ce1a6c423015ec91250def8a06c109a557420e1116c0c518da4f5110484f17f",
    "data/volumes/s0005.ctv": "de6557a19791cccf716c868f1c65be3663a620ec22f2e2c79442c490980df393",
    "data/volumes/s0006.ctv": "76f1a33ce21924cf9ab7c8f345f46afb1621694243371d186e74bda27d49a251",
    "data/volumes/s0007.ctv": "43fb883d5d5bcf841d14a14fadff48ec26622176dca7417bbf09cea9acb44dac",
    "data/volumes/s0008.ctv": "09e3110548bec00ed4b4bb2703227ae09387364fa3b1f8de4816777eb5fdd5ec",
    "data/volumes/s0009.ctv": "b2b17921b070f7cce85344e49849986c3e8d2f8dba2b2f5f9328ac64931793f3",
    "data/volumes/s0010.ctv": "ef9fbe69a2a1ff690cada44370a3a8692e4f9172d64f399fa0f62be4052b91e2",
    "data/volumes/s0011.ctv": "3feb876c7bce57c58d376e1dd2ff6ed163e96d64c9af45e40a7190206a6121b1",
    "data/volumes/s0012.ctv": "9552b66eacf563b8a54f3679e72701f6527a99be739a3049d2c7a35fac539877",
    "data/volumes/s0013.ctv": "ca7a369703d9096814712cde9e7f4999b58e8b8e67f2a9fa15b54a9457b671fb",
    "data/volumes/s0014.ctv": "4e51ad6c9ab4dc4a6df434e64766d61deef8bdf9bc801e821b82bbe97eef82f4",
    "data/volumes/s0015.ctv": "ca9f0e0d4c4e46a3d054b2d26be06bc46cc5ef984127bfc7f12d5a8d52c447e4",
    "data/volumes/s0016.ctv": "b867a6d540489c95c230dfd9e162a84981b6eb30fd2020f82a04be6ab580a3e2",
    "data/volumes/s0017.ctv": "116afb8014a791d42cadb351dd8afe53088a5ea9096dae6d0f41baa69ffacda2",
    "data/volumes/s0018.ctv": "5dca352167597c43cb1f5551f5cdea21991a8f81409a9ef0d85bea5c42ab4335",
    "data/volumes/s0019.ctv": "72da0c3595085feec3546b3185c792f971e39e8f8353f2a0c90c6d9ea1f2714b",
    "data/volumes/s0020.ctv": "bc4bf2e2ec4a685a44e6f3de776d233d41ee5016876a9b337c9c4e3d9996c1ea",
    "data/volumes/s0021.ctv": "831675020dbfffe93058248a7f920425de16e55471d9ef6339f77b14c0c6a57e",
    "data/volumes/s0022.ctv": "53e1c2cd97d24a9fae195ad05b42701fe4a9189a87a3d3b0d9e30cd055a9110a",
    "data/volumes/s0023.ctv": "5f695ad666f52caf2d17e321a32874fc4cfc934a2a4505d3466acb53e669ac8d",
    "oof/folds.csv": "dc57d9eee59e7fe5b89f8ffe50ae7f5241953bf3c93660ed3196f6d7245f7d24",
    "oof/oof_probs.csv": "0b7fd23361e760b09e3365d3417704d8ca45e29cf1e61151217ff90134955b32",
    "refined.csv": "2e691c19cb9c848837a2874f667484fb18242fdee68954c9292538f7d5917fe6",
    "stacker.json": "463bd681acc5d8d65c08182011c00391741efea528b7eaa8561930712534e934",
    "stacker_broadcast.json": "936d97a5b7950f5c2c75b486202d379c69dc6788a647f72217d89eb554f44477",
}


# On failure pytest lists each artifact whose digest differs, with both values.
def test_chain_reproduces_golden_digests(tmp_path):
    assert run_chain(tmp_path, full_chain(tmp_path)) == GOLDEN


def test_growth_chain_reproduces_golden_digests(tmp_path):
    assert run_chain(tmp_path, growth_chain(tmp_path)) == GOLDEN_GROWTH
