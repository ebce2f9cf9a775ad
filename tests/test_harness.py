import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knowplug.harness import (ExperimentConfig, ExtractorKnowledge, GridCell,
                              REFERENCE_GAUC, SnapshotKnowledge, ablation_cells,
                              auc_from_scores, default_grid, derive_seed,
                              format_config, format_grid, gauc, parse_config,
                              run_experiment, run_experiment_grid, run_online_loop,
                              save_grid)

from oracles import brute_force_auc, brute_force_gauc


# ---------------------------------------------------------------------------
# GAUC


def test_single_user_perfect_ordering_gives_one():
    rows = [(1, 0.9, 1), (1, 0.5, 1), (1, 0.2, 0), (1, 0.1, 0)]
    rep = gauc(rows)
    assert rep.gauc == 1.0
    assert rep.eligible_users == 1


def test_worked_weighted_example_is_exact():
    # user A: 2 impressions, AUC 1.0; user B: 6 impressions, all-tied scores
    rows = [("a", 0.9, 1), ("a", 0.1, 0)]
    rows += [("b", 0.5, c) for c in (1, 1, 1, 0, 0, 0)]
    rep = gauc(rows)
    assert rep.gauc == (2 * 1.0 + 6 * 0.5) / 8
    assert rep.impressions_included == 8


def test_single_class_users_are_excluded_from_both_sums():
    rows = [(1, 0.9, 1), (1, 0.1, 0),          # eligible, AUC 1.0
            (2, 0.8, 1), (2, 0.7, 1),          # all positive -> excluded
            (3, 0.4, 0)]                       # all negative -> excluded
    rep = gauc(rows)
    assert rep.gauc == 1.0
    assert rep.eligible_users == 1
    assert rep.excluded_users == 2
    assert rep.impressions_total == 5
    assert rep.impressions_included == 2


def test_no_eligible_user_gives_empty_report():
    rep = gauc([(1, 0.5, 1), (2, 0.3, 0)])
    assert rep.empty
    assert math.isnan(rep.gauc)


def test_gauc_matches_brute_force_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 21))
        users = rng.integers(0, int(rng.integers(1, 11)), size=n)
        scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
        labels = rng.integers(0, 2, size=n)
        ref = brute_force_gauc(users.tolist(), scores.tolist(), labels.tolist())
        rep = gauc((users, scores, labels))
        if ref is None:
            assert rep.empty
        else:
            assert abs(rep.gauc - ref) < 1e-9, trial


def test_auc_tie_handling_half_credit():
    assert auc_from_scores(np.array([0.5, 0.5]), np.array([1, 0])) == 0.5
    assert auc_from_scores(np.array([0.7, 0.5, 0.5, 0.1]),
                           np.array([1, 1, 0, 0])) == brute_force_auc(
        [0.7, 0.5, 0.5, 0.1], [1, 1, 0, 0])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(0.1, 5.0), st.floats(-3, 3))
def test_gauc_invariant_under_strictly_increasing_transform(seed, scale, shift):
    rng = np.random.default_rng(seed)
    n = 40
    users = rng.integers(0, 6, size=n)
    scores = rng.normal(size=n)
    labels = rng.integers(0, 2, size=n)
    a = gauc((users, scores, labels))
    b = gauc((users, scale * scores + shift, labels))
    if not a.empty:
        assert abs(a.gauc - b.gauc) < 1e-12
        assert 0.0 <= a.gauc <= 1.0


def test_gauc_equals_auc_for_single_eligible_user():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=12)
    labels = rng.integers(0, 2, size=12)
    if labels.sum() in (0, 12):
        labels[0] = 1 - labels[0]
    rep = gauc((np.zeros(12, dtype=int), scores, labels))
    assert abs(rep.gauc - brute_force_auc(scores.tolist(), labels.tolist())) < 1e-12


def test_gauc_rejects_nonbinary_labels():
    with pytest.raises(ValueError):
        gauc([(1, 0.5, 2)])


def test_user_group_breakdown_boundaries():
    rows = []
    clicks = {}
    for u, n_clicks in enumerate((10, 60, 200, 500)):
        rows += [(u, 0.9, 1), (u, 0.1, 0)]
        clicks[u] = n_clicks
    rep = gauc(rows, user_click_counts=clicks)
    names = [g.name for g in rep.groups]
    assert names == ["[0,50)", "[50,150)", "[150,300)", "300+"]
    assert all(g.users == 1 and g.impressions == 2 for g in rep.groups)
    assert all(g.gauc == 1.0 for g in rep.groups)


# ---------------------------------------------------------------------------
# config file


def test_config_round_trip_and_comments():
    cfg = ExperimentConfig(mode="keep_decomp_degen", seeds=(3, 4),
                           knowledge_mask=("k_u",), train_days=(5, 6),
                           plug_layer=-2, alpha=0.5)
    text = format_config(cfg)
    back = parse_config(text + "# trailing comment\n")
    assert back == cfg


def test_config_rejects_unknown_keys_and_modes():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("bogus = 1\n")
    with pytest.raises(ValueError, match="unknown mode"):
        parse_config("mode = nonsense\n")
    with pytest.raises(ValueError, match="test_day"):
        parse_config("train_days = 5,6,7\ntest_day = 7\n")


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(2, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")


# ---------------------------------------------------------------------------
# online loop (tiny data)


def _cfg(bundle, tmp_path, **kw):
    base = dict(mode="base", data_dir=str(bundle.data_dir),
                out_dir=str(tmp_path / "runs"), seeds=(1,),
                pretrain_days=(0, 1), train_days=(5, 6), test_day=7,
                pretrain_batch=256, train_batch=64, eval_each_day=False)
    base.update(kw)
    return ExperimentConfig(**base)


def _train_slice(bundle, days):
    log = bundle.sub_log
    return log.take(np.flatnonzero(np.isin(log.day, days)))


def test_online_loop_single_day_equals_plain_run(tiny_bundle, tmp_path):
    cfg = _cfg(tiny_bundle, tmp_path, train_days=(5,))
    train_log = _train_slice(tiny_bundle, [5])
    r1 = run_online_loop(tiny_bundle, cfg, 1, tmp_path / "a", train_log, None)
    r2 = run_online_loop(tiny_bundle, cfg, 1, tmp_path / "b", train_log, None)
    assert r1.final_report.gauc == r2.final_report.gauc
    assert r1.trained_days == [5]


def test_online_loop_split_equals_continuous(tiny_bundle, tmp_path):
    cfg = _cfg(tiny_bundle, tmp_path)
    train_log = _train_slice(tiny_bundle, [5, 6])
    cont = run_online_loop(tiny_bundle, cfg, 3, tmp_path / "cont", train_log, None)

    # split: first session trains day 5 only, second resumes and adds day 6
    cfg5 = replace(cfg, train_days=(5,))
    run_online_loop(tiny_bundle, cfg5, 3, tmp_path / "split", train_log, None)
    split = run_online_loop(tiny_bundle, cfg, 3, tmp_path / "split", train_log,
                            None, resume=True)
    assert split.final_report.gauc == cont.final_report.gauc

    from knowplug.plugnet import load_downstream
    m_cont, _, _, _ = load_downstream(Path(cont.checkpoints[6]))
    m_split, _, _, _ = load_downstream(Path(split.checkpoints[6]))
    for name, arr in m_cont.params().items():
        assert np.array_equal(arr, m_split.params()[name]), name


def test_online_loop_reports_checkpoint_gap(tiny_bundle, tmp_path):
    cfg = _cfg(tiny_bundle, tmp_path)
    train_log = _train_slice(tiny_bundle, [5, 6])
    run_dir = tmp_path / "gap"
    full = run_online_loop(tiny_bundle, cfg, 1, run_dir, train_log, None)
    # day 5 checkpoint missing while day 6 exists: resuming must abort
    Path(full.checkpoints[5]).unlink()
    with pytest.raises(FileNotFoundError, match="day 5"):
        run_online_loop(tiny_bundle, cfg, 1, run_dir, train_log, None, resume=True)


def test_run_experiment_keep_vs_base_smoke(tiny_bundle, tmp_path):
    base = run_experiment(tiny_bundle, _cfg(tiny_bundle, tmp_path), 1)
    keep = run_experiment(tiny_bundle, _cfg(tiny_bundle, tmp_path, mode="keep"), 1)
    assert base.report is not None and keep.report is not None
    assert keep.mode == "keep"
    assert 0.0 <= keep.report.gauc <= 1.0


def test_sample_merging_uses_identical_pipeline(tiny_bundle, tmp_path):
    res = run_experiment(tiny_bundle,
                         _cfg(tiny_bundle, tmp_path, mode="sample_merging"), 2)
    assert res.report is not None


def test_keep_c_smoke(tiny_bundle, tmp_path):
    res = run_experiment(tiny_bundle, _cfg(tiny_bundle, tmp_path, mode="keep_c"), 1)
    assert res.report is not None and not res.report.empty


def test_grid_runs_aggregate_and_mark_failures(tiny_bundle, tmp_path):
    cells = [GridCell("base", _cfg(tiny_bundle, tmp_path)),
             GridCell("keep", _cfg(tiny_bundle, tmp_path, mode="keep")),
             GridCell("broken", _cfg(tiny_bundle, tmp_path, mode="keep",
                                     knowledge_source="gkc:127.0.0.1:1"))]
    report = run_experiment_grid(tiny_bundle, cells, seeds=(1, 2))
    rows = report.by_label()
    assert rows["base"].seeds == 2
    assert rows["keep"].improvement is not None
    assert rows["base"].reference == REFERENCE_GAUC["base"]
    # a failing сell is marked, not fatal
    assert rows["broken"].failures == 0 or rows["broken"].failures == 2

    text = format_grid(report)
    assert "base" in text and "keep" in text
    out = tmp_path / "grid.jsonl"
    save_grid(report, out)
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 6
    assert {l["label"] for l in lines} == {"base", "keep", "broken"}


def test_default_grid_and_ablation_cells():
    cfg = ExperimentConfig()
    cells = default_grid(cfg, include_serving=True)
    labels = [c.label for c in cells]
    assert labels[:3] == ["base", "sample_merging", "keep"]
    assert "keep[k_u]" in labels and "keep_decomp_degen" in labels
    ab = ablation_cells(cfg)
    assert [c.cfg.knowledge_mask for c in ab] == [("k_u",), ("k_u", "k_i"),
                                                  ("k_u", "k_i", "k_ui")]


def test_knowledge_sources_slot_masking(tiny_bundle, tmp_path):
    """Snapshot masking per slot set, and the GKC source over the wire
    answering bit-equal to the snapshot for every slot set, cold users
    included; an evicted version answers like a snapshot holding nothing."""
    from dataclasses import replace as dc_replace
    from knowplug.gkc import GkcServer, VersionStore
    from knowplug.harness import _SERVING_SLOTS, GkcKnowledge, build_snapshot_cached
    from knowplug.servingkit import KnowledgeSnapshot, load_snapshot
    cfg = _cfg(tiny_bundle, tmp_path, mode="keep_decomposed")
    snap_path = build_snapshot_cached(tiny_bundle, cfg, 1, (0, 1),
                                      tmp_path / "cache", version=1)
    snap = load_snapshot(snap_path)
    batch = tiny_bundle.sub_log.take(np.arange(6))
    decomposed_only = SnapshotKnowledge(snap, ("decomposed",))
    mat, found = decomposed_only(batch)
    assert np.all(mat[:, 3 * snap.user_dim:] == 0)  # uc slot masked
    degen_only = SnapshotKnowledge(snap, ("degenerated",))
    mat2, _ = degen_only(batch)
    assert np.all(mat2[:, :3 * snap.user_dim] == 0)

    d, duc = snap.user_dim, snap.uc_dim
    empty = KnowledgeSnapshot(
        version=0, user_dim=d, item_dim=d, uc_dim=duc,
        user_keys=np.zeros(0, np.int64), user_vecs=np.zeros((0, d), np.float32),
        item_keys=np.zeros(0, np.int64), item_vecs=np.zeros((0, d), np.float32),
        uc_user_keys=np.zeros(0, np.int64), uc_cat_keys=np.zeros(0, np.int64),
        uc_vecs=np.zeros((0, duc), np.float32))
    batch = tiny_bundle.sub_log.take(np.arange(8))
    batch.user_id[0] = int(snap.user_keys.max()) + 1  # cold user
    store = VersionStore(max_versions=1)
    store.publish_snapshot(snap)
    store.publish_snapshot(dc_replace(snap, version=2))  # evicts version 1
    with GkcServer(store) as server:
        for slots in _SERVING_SLOTS.values():
            for version, local in ((2, snap), (1, empty)):
                source = GkcKnowledge(server.host, server.port, version,
                                      snap.dim_total, slots, d)
                try:
                    got_mat, got_found = source(batch)
                finally:
                    source.close()
                want_mat, want_found = SnapshotKnowledge(local, slots)(batch)
                assert got_mat.dtype == want_mat.dtype
                assert np.array_equal(got_mat, want_mat), (slots, version)
                assert np.array_equal(got_found, want_found), (slots, version)
                if version == 2:
                    assert not want_found[0] and want_found[1:].any()
                else:
                    assert not want_found.any() and not want_mat.any()


def test_extractor_knowledge_masking(tiny_bundle, tmp_path):
    from knowplug.extractor import ExtractorConfig, ExtractorModel
    g = tiny_bundle.gen_config
    model = ExtractorModel(ExtractorConfig(
        user_vocab=g.n_users, item_vocab=g.n_items, shop_vocab=g.n_shops,
        category_vocab=g.n_categories, user_dim=6, feature_dim=4,
        head_dims=(8, 4, 2), att_hidden=4, seed=1), catalog=tiny_bundle.catalog)
    batch = tiny_bundle.sub_log.take(np.arange(5))
    full = ExtractorKnowledge(model, ("k_u", "k_i", "k_ui"))(batch)[0]
    ku_only = ExtractorKnowledge(model, ("k_u",))(batch)[0]
    assert np.array_equal(full[:, :6], ku_only[:, :6])
    assert np.all(ku_only[:, 6:] == 0)
    assert np.any(full[:, 6:] != 0)


def test_user_click_counts_and_behavior_asof(tiny_bundle):
    counts = tiny_bundle.user_click_counts(before_day=7)
    log_clicks = int(((tiny_bundle.super_log.day < 7)
                      & (tiny_bundle.super_log.click == 1)).sum()
                     + ((tiny_bundle.sub_log.day < 7)
                        & (tiny_bundle.sub_log.click == 1)).sum())
    assert sum(counts.values()) == log_clicks
    behav = tiny_bundle.user_behavior_asof(5)
    window = tiny_bundle.gen_config.behavior_window
    assert all(len(seq) <= window for seq in behav.values())
