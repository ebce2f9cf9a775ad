import json

import pytest

from knowplug import cli
from knowplug.cli import main
from knowplug.gkc import GkcClient, GkcServer, VersionStore
from knowplug.harness import ExperimentConfig, format_config, parse_config
from knowplug.plugnet import DownstreamConfig

from conftest import TINY_GEN


def test_gen_subcommand(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["gen", "--out-dir", str(out), "--n-users", "50", "--n-items", "30",
               "--n-categories", "6", "--n-shops", "10", "--n-days", "2",
               "--super-impressions-per-user-day", "4.0",
               "--sub-impressions-per-user-day", "0.5", "--seed", "3"])
    assert rc == 0
    assert (out / "super.jsonl").exists() and (out / "sub.jsonl").exists()
    assert (out / "catalog.npz").exists() and (out / "meta.json").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["n_users"] == 50


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    from knowplug.datagen import generate
    generate(TINY_GEN, out)
    return out


def test_pretrain_and_train_subcommands(cli_data, tmp_path, capsys):
    rc = main(["pretrain", "--data-dir", str(cli_data), "--out-dir",
               str(tmp_path / "runs"), "--seed", "1", "--days", "0", "1"])
    assert rc == 0
    assert "extractor checkpoint" in capsys.readouterr().out

    rc = main(["train", "--data-dir", str(cli_data), "--out-dir",
               str(tmp_path / "runs"), "--seed", "1", "--mode", "base"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode=base" in out and "gauc=" in out


def test_experiment_subcommand_single_mode(cli_data, tmp_path, capsys):
    cfg = ExperimentConfig(mode="base", data_dir=str(cli_data),
                           out_dir=str(tmp_path / "runs"), seeds=(1,),
                           pretrain_days=(0, 1), train_days=(5, 6),
                           pretrain_batch=256, train_batch=64)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(format_config(cfg))
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "base" in out
    assert (tmp_path / "runs" / "grid_results.jsonl").exists()


class _Captured(Exception):
    pass


def test_train_plug_layer_default_matches_config_file(monkeypatch):
    seen = []

    def capture(bundle, cfg, seed, log_fn=None):
        seen.append(cfg)
        raise _Captured

    monkeypatch.setattr(cli, "ensure_data", lambda *args, **kwargs: None)
    monkeypatch.setattr(cli, "run_experiment", capture)
    with pytest.raises(_Captured):
        main(["train", "--data-dir", "unused", "--mode", "keep"])
    from_file = parse_config("mode = keep\n").plug_layer
    assert seen[0].plug_layer == from_file
    assert DownstreamConfig(item_vocab=1, shop_vocab=1,
                            category_vocab=1).plug_layer == from_file


def test_train_serving_mode_reads_knowledge_and_version(cli_data, tmp_path, capsys,
                                                        monkeypatch):
    runs = tmp_path / "runs"
    argv = ["train", "--data-dir", str(cli_data), "--out-dir", str(runs), "--seed", "1",
            "--mode", "keep_decomp_degen", "--version", "3"]
    assert main(argv + ["--knowledge", "snapshot"]) == 0
    local = _result_line(capsys.readouterr().out)

    lookups = []
    real_lookup = GkcClient.lookup
    monkeypatch.setattr(GkcClient, "lookup",
                        lambda client, quads: lookups.append(len(quads))
                        or real_lookup(client, quads))
    with GkcServer(VersionStore(), snapshot_dir=runs / "cache") as server:
        assert server.load_snapshot_dir() == [3]
        assert main(argv + ["--knowledge", f"gkc:{server.host}:{server.port}"]) == 0
    served = _result_line(capsys.readouterr().out)
    assert lookups
    assert served == local


def _result_line(out: str) -> str:
    (line,) = [l for l in out.splitlines() if l.startswith("mode=keep_decomp_degen ")]
    return line


def test_serve_subcommand_help_only():
    with pytest.raises(SystemExit):
        main(["serve", "--help"])
