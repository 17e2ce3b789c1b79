"""The command outputs pinned in tests/golden/: validate's reports and what
train writes. The runners' CSVs and sidecars are compared by
test_every_runner_writes_reproducible_outputs, which already runs them."""

import pytest

import golden


@pytest.mark.parametrize("seed", golden.VALIDATE_SEEDS)
def test_validate_report_matches_golden(seed):
    rc, out = golden.run_cli(golden.VALIDATE_ARGV + [str(seed)])
    assert rc == 0
    golden.assert_matches(out, f"validate_seed{seed}.json")


def test_train_outputs_match_golden(tmp_path):
    rc, _ = golden.run_cli(golden.TRAIN_ARGV + [str(tmp_path)])
    assert rc == 0
    golden.assert_matches((tmp_path / "expert_dataset.csv").read_text(encoding="utf-8"),
                          "expert_dataset.csv")
    want = (golden.GOLDEN_DIR / "diffusion.npz.sha256").read_text(encoding="utf-8").strip()
    assert golden.sha256(tmp_path / "diffusion.npz") == want
