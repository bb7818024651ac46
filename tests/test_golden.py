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
    "eval/report.csv": "72ab951a298ff0fce52307bcc17a852384302deda9e37029aaba3b253fd38269",
    "eval/report.txt": "bf02c5e8dbba961319bbb67cd7f5aa31e094cdce59ce71c87898a54bb469b899",
    "oof/folds.csv": "5aec209728f5d9ab172828d365fdf6d5c96a79fd9fafd1e2699863d9ba64fede",
    "oof/oof_probs.csv": "768f6099a50dd749f11d953b42f1817d89a4b3237e55ce3db4f288105f945758",
    "probs.csv": "3df1b85c79229ff35c173ba795b22ca68adefbf23bfd8030c7c14925b09bea85",
    "refined.csv": "aaa3064a96797358b3fb1b5671b3cbbca264c406d1ea7463393a2181403ba7f3",
    "report/boxplot.svg": "089e47793fb4f556865a522869383c1b37fce14031c755ec7a0aa1bb548fe1b3",
    "report/boxplot_stats.csv": "77cd0c658dcc0563afb9b651839b8f1784679968b97578ff2b47ba2d0b02e7b7",
    "report/ci_summary.csv": "b75c023256856cbfe9f5868a36f9b81700f8f872cbf98ade0eeb682c96462ea5",
    "report/cumulative_any.svg": "c6ec89dfb0a72054221345792c606b398287d5a52f5f69c715b135dd17619008",
    "report/cumulative_curves.csv": "34cd4426ae73c3fbad0044ca5b4a2fcacef5fa5f1c1a5c32672d8cbce6c4c8ef",
    "report/cumulative_edh.svg": "406d1a638c3bc498a87d2c15c676645e135d407c797abd3c6f87fb219243e259",
    "report/cumulative_iph.svg": "b86257d20f4583496ce94701aa3a1253457e6a2ac6c48fabef918de317e18922",
    "report/cumulative_ivh.svg": "5b32e7c4f04ef6d932d582fd12061d96136461734ea618b967b7882b4c2f9837",
    "report/cumulative_sah.svg": "8075e45fcaf426d40aa053d575f8329efab9a75df2890312b46f391a52439f60",
    "report/cumulative_sdh.svg": "5c7df71606cbebb927080aea3569885cc98e311e328a41fed1f64150d883294b",
    "report/roc_curves.csv": "0be708e2647f2ad0c6d4e086f595ac08a20dea3b9c4fc09275f043d593f3b66d",
    "report/roc_curves.svg": "2dbec7cf513985794ca11b8f1fa7ec1bf31e5aed69dd592321130c5fccf61e6e",
    "slice_model.json": "4c9bb3bc61bd34378688d265f115e7ee2d9113a67f51e253e84d90d3ebd32b27",
    "stacker.json": "179fdc18c8cb166dbae255aae083709b939dea9aa74d3bc442b6f15479f36268",
    "stacker_broadcast.json": "886ecfbb18ea87b53a5a3e8cdf3a415286fccdcc8b1948d3b8de623a54cdf5f5",
    "thresholds.json": "2fe99bf4cbefce9de4cdc940142dd95995ccbbff203af0c1aa0e51f0709c9ed1",
    "thresholds_mean_type.json": "e0b14c1f907433ba34b486e28d5bba044c174a1bdd1da1112e7958ea656e97db",
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
    "oof/oof_probs.csv": "d26e3a11aa543e6550d5275b78ce1ee1c4fd3245e3c8e4bb37871edb1c689eec",
    "refined.csv": "10dc4ed8539f0d978ef9533a694deb0937d6d6a231404102bb6973302f6c12b4",
    "stacker.json": "c58c41d5c3fec657281541957d380da3362bbdfcb054ec3922cab2a6ba82dbfa",
    "stacker_broadcast.json": "4fb70586d0938e79f32121bdc230e3c02ad749b2911f91c9a050691e081c75d8",
}


# On failure pytest lists each artifact whose digest differs, with both values.
def test_chain_reproduces_golden_digests(tmp_path):
    assert run_chain(tmp_path, full_chain(tmp_path)) == GOLDEN


def test_growth_chain_reproduces_golden_digests(tmp_path):
    assert run_chain(tmp_path, growth_chain(tmp_path)) == GOLDEN_GROWTH
