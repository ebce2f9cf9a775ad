"""Command line front end.

Subcommands: gen (synthetic logs), pretrain (knowledge extractor),
train (downstream model, with or without plugged knowledge),
serve (GKC snapshot service), experiment (grid from a config file).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .datagen import GeneratorConfig, generate
from .harness import (MODES, ExperimentConfig, GridCell, default_grid, ensure_data,
                      format_config, format_grid, parse_config, run_experiment,
                      run_experiment_grid, save_grid)
from .gkc import GkcServer, VersionStore


MODE_ALIASES = {"merge": "sample_merging", "keep-c": "keep_c"}


def _log(msg: str) -> None:
    print(msg, flush=True)


def _add_gen(sub) -> None:
    p = sub.add_parser("gen", help="generate synthetic super/sub-domain logs")
    defaults = GeneratorConfig()
    p.add_argument("--out-dir", required=True)
    for f in fields(GeneratorConfig):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, type=type(getattr(defaults, f.name)),
                       default=getattr(defaults, f.name))


def _cmd_gen(args) -> int:
    kwargs = {f.name: getattr(args, f.name) for f in fields(GeneratorConfig)}
    cfg = GeneratorConfig(**kwargs)
    t0 = time.time()
    sup, sub = generate(cfg, args.out_dir)
    _log(f"wrote {sup} and {sub} in {time.time() - t0:.1f}s")
    return 0


def _add_common_run(p) -> None:
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", default="runs")
    p.add_argument("--seed", type=int, default=1)


def _cmd_pretrain(args) -> int:
    from .harness import pretrain_extractor_cached
    bundle = ensure_data(args.data_dir, log_fn=_log)
    cfg = ExperimentConfig(data_dir=args.data_dir, out_dir=args.out_dir,
                           pretrain_days=tuple(args.days))
    path = pretrain_extractor_cached(bundle, cfg, args.seed,
                                     tuple(args.days), Path(args.out_dir) / "cache",
                                     log_fn=_log)
    _log(f"extractor checkpoint: {path}")
    return 0


def _cmd_train(args) -> int:
    bundle = ensure_data(args.data_dir, log_fn=_log)
    cfg = ExperimentConfig(mode=args.mode, data_dir=args.data_dir,
                           out_dir=args.out_dir, plug_layer=args.plug_layer,
                           knowledge_source=args.knowledge,
                           knowledge_version=args.version)
    res = run_experiment(bundle, cfg, args.seed, log_fn=_log)
    rep = res.report
    _log(f"mode={args.mode} seed={args.seed} gauc={rep.gauc:.4f} "
         f"(eligible users {rep.eligible_users}, "
         f"missing knowledge {res.missing_knowledge})")
    for g in rep.groups:
        _log(f"  clicks {g.name:<10} gauc={g.gauc:.4f} users={g.users} "
             f"impressions={g.impressions}")
    return 0


def _cmd_serve(args) -> int:
    store = VersionStore(max_versions=args.max_versions)
    server = GkcServer(store, host=args.host, port=args.port,
                       snapshot_dir=args.snapshot_dir)
    published = server.load_snapshot_dir()
    _log(f"loaded versions {published} from {args.snapshot_dir}")
    _log(f"serving on {server.host}:{server.port}")
    server.start()
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        server.stop()
    return 0


def _cmd_experiment(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    bundle = ensure_data(cfg.data_dir, log_fn=_log)
    if args.print_config:
        _log(format_config(cfg))
    if args.grid:
        cells = default_grid(cfg, include_serving=args.serving)
    else:
        cells = [GridCell(cfg.mode, cfg)]
    report = run_experiment_grid(bundle, cells, cfg.seeds, log_fn=_log)
    _log("")
    _log(format_grid(report))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_grid(report, out / "grid_results.jsonl")
    _log(f"\nper-run results: {out / 'grid_results.jsonl'}")
    rows = report.by_label()
    failures = sum(r.failures for r in report.rows)
    regressions = []
    if "base" in rows and "keep" in rows:
        if not rows["keep"].gauc_mean - rows["base"].gauc_mean >= 0.005:
            regressions.append("keep does not beat base by +0.005")
        if "sample_merging" in rows and \
                not rows["keep"].gauc_mean > rows["sample_merging"].gauc_mean:
            regressions.append("keep does not beat sample merging")
    for msg in regressions:
        _log(f"REGRESSION: {msg}")
    return 1 if (failures or regressions) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="knowplug",
        description="cross-domain knowledge extraction, plugging and serving")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_gen(sub)

    p = sub.add_parser("pretrain", help="pre-train the knowledge extractor")
    _add_common_run(p)
    p.add_argument("--days", type=int, nargs="+", default=[0, 1, 2, 3, 4])

    p = sub.add_parser("train", help="train a downstream model")
    _add_common_run(p)
    p.add_argument("--mode", default="keep", choices=[*MODES, *MODE_ALIASES])
    p.add_argument("--plug-layer", type=int, default=ExperimentConfig.plug_layer)
    p.add_argument("--knowledge", default="model",
                   help="knowledge source of the keep_decomposed, keep_degenerated "
                        "and keep_decomp_degen modes: model | snapshot | "
                        "gkc:<host>:<port>")
    p.add_argument("--version", type=int, default=1,
                   help="knowledge version the serving modes build and read")

    p = sub.add_parser("serve", help="run the knowledge cache service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7411)
    p.add_argument("--snapshot-dir", required=True)
    p.add_argument("--max-versions", type=int, default=5)

    p = sub.add_parser("experiment", help="run the experiment grid from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", action="store_true",
                   help="run the full mode grid instead of the single configured mode")
    p.add_argument("--serving", action="store_true",
                   help="include the serving-strategy modes in the grid")
    p.add_argument("--print-config", action="store_true")

    args = parser.parse_args(argv)
    if getattr(args, "mode", None) in MODE_ALIASES:
        args.mode = MODE_ALIASES[args.mode]
    cmd = {"gen": _cmd_gen, "pretrain": _cmd_pretrain, "train": _cmd_train,
           "serve": _cmd_serve, "experiment": _cmd_experiment}[args.command]
    return cmd(args)


if __name__ == "__main__":
    sys.exit(main())
