"""Command-line front end.

Subcommands: ``decompose`` (full pipeline on a data file), ``latdim``
(dimensionality estimate only), ``bench`` (Monte-Carlo separation, the
dimensionality validation grid, and the named solver problems), ``gen``
(fixture generators). Every run writes a manifest with the effective
configuration so outputs can be reproduced bit-identically.

Exit codes: 0 success, 2 bad input or configuration, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    GridConfig,
    MixingFamily,
    electron_problem,
    grid_csv,
    grid_json,
    latdim_validation,
    make_sources,
    model_dataset,
    monte_carlo_bss,
    nnls_problem,
    polygon_area,
    polygon_problem,
    random_nnls_instance,
    sir as sir_fn,
    synth5,
)
from .dataio import load_matrix, save_matrix_csv
from .latdim import LatDimSummary, estimate_q
from .nlp import AugLagConfig, solve
from .pursuit import PursuitConfig, PursuitError, decompose
from .whiten import DataMatrix, center

# The configuration's one declaration is PursuitConfig and AugLagConfig; each
# key's type is the type of its default. The top-level seed is the only seed.
SOLVER_FIELDS = {f.name: type(f.default) for f in fields(AugLagConfig)}
PURSUIT_FIELDS = {f.name: type(f.default) for f in fields(PursuitConfig)
                  if f.name not in ("solver", "rng_seed")}
TOP_FIELDS = {"input": str, "q": int, "seed": int, "output": str,
              "pursuit": dict, "solver": dict}


class ConfigError(ValueError):
    pass


def load_config_file(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if isinstance(doc.get("config"), dict):
        doc = doc["config"]         # accept a manifest as a config source
    return doc


def _type_ok(value, kind) -> bool:
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool   # a bool is no int
    return isinstance(value, (int, float) if kind is float else kind)


def _check_block(block: dict, types: dict, where: str, nullable=()) -> None:
    unknown = set(block) - set(types)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for key, value in block.items():
        if value is None and key in nullable or _type_ok(value, types[key]):
            continue
        raise ConfigError(f"{where} key {key!r} must be "
                          f"{types[key].__name__}, got {value!r}")


def validate_config(doc: dict) -> None:
    """Key names and value types of a config, after the flags are merged."""
    _check_block(doc, TOP_FIELDS, "config", nullable={"q", "output"})
    _check_block(doc.get("pursuit", {}), PURSUIT_FIELDS, "pursuit")
    _check_block(doc.get("solver", {}), SOLVER_FIELDS, "solver")


def build_pursuit_config(doc: dict) -> PursuitConfig:
    cfg = PursuitConfig(**doc.get("pursuit", {}), rng_seed=doc["seed"],
                        solver=AugLagConfig(**doc.get("solver", {})))
    cfg.validate()
    return cfg


def effective_config(doc: dict, cfg: PursuitConfig) -> dict:
    return {
        "input": doc.get("input"),
        "q": doc.get("q"),
        "seed": cfg.rng_seed,
        "output": doc.get("output"),
        "pursuit": {key: getattr(cfg, key) for key in PURSUIT_FIELDS},
        "solver": asdict(cfg.solver),
    }


def write_manifest(outdir: Path, command: str, config: dict, extra: dict,
                   timings: dict) -> None:
    doc = {"tool": "adis-kit", "version": __version__, "command": command,
           "config": config, "timings": timings}
    doc.update(extra)
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_latdim(outdir: Path, summary: LatDimSummary) -> None:
    with open(outdir / "latdim.json", "w") as fh:
        fh.write(summary.to_json() + "\n")
    with open(outdir / "latdim-profile.csv", "w") as fh:
        fh.write(summary.profile_csv())


def _merge_cli(doc: dict, args, keys) -> dict:
    # flag > config file > default
    for key, attr in keys.items():
        val = getattr(args, attr, None)
        if val is not None:
            doc[key] = val
    return doc


def cmd_decompose(args) -> int:
    doc = load_config_file(args.config) if args.config else {}
    _merge_cli(doc, args, {"input": "input", "q": "q", "seed": "seed",
                           "output": "output"})
    doc.setdefault("seed", PursuitConfig.rng_seed)
    validate_config(doc)
    if not doc.get("input"):
        raise ConfigError("no input file given")
    if not Path(doc["input"]).exists():
        raise ConfigError(f"input file not found: {doc['input']}")
    cfg = build_pursuit_config(doc)
    data = DataMatrix(load_matrix(doc["input"]))

    outdir = Path(doc.get("output") or "adis-out")
    t0 = time.perf_counter()
    try:
        result, model, stats = decompose(data, q=doc.get("q"), config=cfg)
    except PursuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, tr in enumerate(exc.traces):
            tr.save(outdir / f"trace-failed-{i + 1}.jsonl")
        print(f"partial traces written to {outdir}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - t0

    outdir.mkdir(parents=True, exist_ok=True)
    q = result.Q.shape[0]
    save_matrix_csv(outdir / "Q.csv", result.Q)
    save_matrix_csv(outdir / "sources.csv", result.S_hat)
    save_matrix_csv(outdir / "mixing.csv", model.mixing_for(result.Q))
    with open(outdir / "model.json", "w") as fh:
        fh.write(model.to_json() + "\n")
    if stats is not None:
        rows = np.column_stack([np.arange(data.n), stats.sigma2, stats.rv.T])
        header = ["sample", "sigma2"] + [f"rv_{k + 1}" for k in range(q)]
        save_matrix_csv(outdir / "stats.csv", rows, header=header)
    else:
        save_matrix_csv(outdir / "stats.csv", np.zeros((0, 2)),
                        header=["sample", "sigma2"])
    for k, tr in enumerate(result.component_traces, start=1):
        tr.save(outdir / f"trace-component-{k}.jsonl")
    if result.joint_trace is not None:
        result.joint_trace.save(outdir / "trace-joint.jsonl")
    if result.latdim is not None:
        write_latdim(outdir, result.latdim)

    all_converged = all(
        tr.final is not None and tr.final.status == "converged"
        for tr in result.component_traces)
    write_manifest(outdir, "decompose", effective_config(doc, cfg), {
        "q": q,
        "q_source": result.q_source,
        "joint_fallback": result.joint_fallback,
        "outputs": sorted(p.name for p in outdir.iterdir()
                          if p.name != "manifest.json"),
    }, {"decompose_seconds": elapsed})
    if not all_converged:
        print("error: component extraction did not converge", file=sys.stderr)
        return 3
    print(f"decomposed {data.p}x{data.n} into q={q} sources "
          f"({result.q_source}); outputs in {outdir}")
    return 0


def cmd_latdim(args) -> int:
    if not Path(args.input).exists():
        raise ConfigError(f"input file not found: {args.input}")
    data = DataMatrix(load_matrix(args.input))
    t0 = time.perf_counter()
    summary = estimate_q(center(data.values).values, seed=args.seed)

    outdir = Path(args.output or "adis-out")
    outdir.mkdir(parents=True, exist_ok=True)
    write_latdim(outdir, summary)
    write_manifest(outdir, "latdim",
                   {"input": args.input, "seed": args.seed,
                    "output": str(outdir)},
                   {"q_hat": summary.q_hat, "q_l": summary.q_l},
                   {"latdim_seconds": time.perf_counter() - t0})
    print(summary.q_hat)
    return 0


def cmd_bench_nlp(args) -> int:
    cfg = AugLagConfig()
    if args.problem == "electron":
        sol = solve(electron_problem(args.np_, seed=args.seed), config=cfg)
        head = f"electron n_p={args.np_}: objective={sol.f:.6f}"
    elif args.problem == "polygon":
        best = None
        for seed in [None] + list(range(args.multistart - 1)):
            problem = polygon_problem(args.nv, seed=seed)
            sol = solve(problem, config=cfg)
            if not sol.converged:
                continue
            area = polygon_area(sol.x, args.nv)
            if best is None or area > best[0]:
                best = (area, sol)
        if best is None:
            print("error: no polygon start converged", file=sys.stderr)
            return 3
        area, sol = best
        head = f"polygon n_v={args.nv}: area={area:.6f}"
    else:
        if args.file:
            try:
                npz = np.load(args.file)
                if not isinstance(npz, np.lib.npyio.NpzFile):
                    raise ValueError("not an .npz archive")
                with npz:
                    A, b = npz["A"], npz["b"]
                    C = npz["C"] if "C" in npz else np.eye(A.shape[1])
                    d = npz["d"] if "d" in npz else np.zeros(C.shape[0])
                problem = nnls_problem(A, b, C, d)
            except (OSError, KeyError, ValueError) as exc:
                raise ConfigError(f"cannot read {args.file}: {exc}") from exc
        else:
            A, b, C, d = random_nnls_instance(args.rows, args.cols, args.seed)
            problem = nnls_problem(A, b, C, d)
        sol = solve(problem, config=cfg)
        head = f"nnls {A.shape[0]}x{A.shape[1]}: objective={sol.f:.6f}"
    print(f"{head} kkt_grad={sol.kkt_grad:.3e} kkt_con={sol.kkt_con:.3e} "
          f"outer={sol.n_outer} status={sol.status.value}")
    return 0 if sol.converged else 3


def cmd_bench_sir_mc(args) -> int:
    if Path(args.sources).exists():
        S = load_matrix(args.sources)
    else:
        S = make_sources(args.sources, n=args.n, seed=args.source_seed)
    family = MixingFamily(args.family)
    t0 = time.perf_counter()
    agg, _ = monte_carlo_bss(S, family, n_b=args.nb, config=PursuitConfig(),
                             master_seed=args.seed)
    outdir = Path(args.output or "adis-out")
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "sir-runs.csv", "w") as fh:
        fh.write(agg.runs_csv())
    with open(outdir / "sir-summary.json", "w") as fh:
        fh.write(agg.to_json() + "\n")
    write_manifest(outdir, "bench sir-mc",
                   {"sources": args.sources, "nb": args.nb, "seed": args.seed,
                    "family": family.value, "n": args.n},
                   {"M": agg.M, "S": agg.S, "n_failed": agg.n_failed},
                   {"mc_seconds": time.perf_counter() - t0})
    print(f"sir-mc: M={agg.M:.4f} dB S={agg.S:.4f} dB over "
          f"{agg.run_means.size} runs ({agg.n_failed} failed)")
    return 0 if agg.n_failed == 0 else 3


def cmd_bench_score(args) -> int:
    """Score externally produced source estimates with the same SIR pipeline.

    Any separation program can participate: run it on a mixed-matrix file,
    write its estimated sources in the same matrix format, and score them
    here against the truth.
    """
    rep = sir_fn(load_matrix(args.truth), load_matrix(args.estimates))
    per_source = " ".join(f"{v:.4f}" for v in rep.sir_db)
    print(f"mean_sir_db={rep.mean_db:.4f} per_source=[{per_source}] "
          f"matching={rep.matching.tolist()}")
    if args.output:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "sir-score.json", "w") as fh:
            json.dump({"mean_sir_db": rep.mean_db,
                       "sir_db": rep.sir_db.tolist(),
                       "matching": rep.matching.tolist()}, fh)
            fh.write("\n")
    return 0


def cmd_bench_latdim_grid(args) -> int:
    cfg = GridConfig(reps=args.reps, master_seed=args.seed,
                     ratios=tuple(float(r) for r in args.ratios.split(",")),
                     q_fracs=tuple(float(r) for r in args.qps.split(",")),
                     families=tuple(args.families.split(",")))
    outdir = Path(args.output or "adis-out")
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    cells = latdim_validation(cfg)
    with open(outdir / "latdim-grid.csv", "w") as fh:
        fh.write(grid_csv(cells))
    with open(outdir / "latdim-grid.json", "w") as fh:
        fh.write(grid_json(cells) + "\n")
    write_manifest(outdir, "bench latdim-grid",
                   {"reps": cfg.reps, "seed": cfg.master_seed,
                    "ratios": list(cfg.ratios), "q_fracs": list(cfg.q_fracs),
                    "families": list(cfg.families)},
                   {"worst_abs_bias": max(abs(c.mean_bias) for c in cells)},
                   {"grid_seconds": time.perf_counter() - t0})
    worst = max(abs(c.mean_bias) for c in cells)
    print(f"latdim-grid: {len(cells)} cells, worst |mean bias| = {worst:.3f}")
    return 0


def cmd_gen(args) -> int:
    if args.kind == "synth5":
        S = synth5(n=args.n, seed=args.seed)
        save_matrix_csv(args.out, S)
        print(f"wrote 5x{args.n} sources to {args.out}")
        return 0
    # model data
    X = model_dataset(args.p, args.q, args.n, args.sigma, family=args.family,
                      seed=args.seed)
    save_matrix_csv(args.out, X)
    print(f"wrote {args.p}x{args.n} model data (q={args.q}, "
          f"sigma={args.sigma}) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adis", description="Blind source separation toolkit")
    parser.add_argument("--version", action="version",
                        version=f"adis-kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="run the full pipeline")
    p_dec.add_argument("--input", help="data file (CSV or binary matrix)")
    p_dec.add_argument("--q", type=int, help="latent dimension override")
    p_dec.add_argument("--seed", type=int, help="master seed (default 0)")
    p_dec.add_argument("--output", help="output directory")
    p_dec.add_argument("--config", help="JSON config or manifest file")
    p_dec.set_defaults(func=cmd_decompose)

    p_lat = sub.add_parser("latdim", help="estimate latent dimensionality")
    p_lat.add_argument("--input", required=True)
    p_lat.add_argument("--seed", type=int, default=0)
    p_lat.add_argument("--output")
    p_lat.set_defaults(func=cmd_latdim)

    p_bench = sub.add_parser("bench", help="benchmark harnesses")
    bench_sub = p_bench.add_subparsers(dest="bench_kind", required=True)

    p_nlp = bench_sub.add_parser("nlp", help="solver benchmark problems")
    nlp_sub = p_nlp.add_subparsers(dest="problem", required=True)
    p_el = nlp_sub.add_parser("electron")
    p_el.add_argument("--np", dest="np_", type=int, default=50)
    p_el.add_argument("--seed", type=int, default=0)
    p_el.set_defaults(func=cmd_bench_nlp, problem="electron")
    p_pg = nlp_sub.add_parser("polygon")
    p_pg.add_argument("--nv", type=int, default=6)
    p_pg.add_argument("--multistart", type=int, default=5)
    p_pg.set_defaults(func=cmd_bench_nlp, problem="polygon")
    p_nn = nlp_sub.add_parser("nnls")
    p_nn.add_argument("--file", help=".npz with arrays A, b and optional C, d")
    p_nn.add_argument("--rows", type=int, default=40)
    p_nn.add_argument("--cols", type=int, default=20)
    p_nn.add_argument("--seed", type=int, default=0)
    p_nn.set_defaults(func=cmd_bench_nlp, problem="nnls")

    p_mc = bench_sub.add_parser("sir-mc", help="Monte-Carlo separation quality")
    p_mc.add_argument("--sources", default="synth5",
                      help="suite name or matrix file")
    p_mc.add_argument("--n", type=int, default=2000,
                      help="samples for generated suites")
    p_mc.add_argument("--source-seed", type=int, default=0)
    p_mc.add_argument("--nb", type=int, default=20)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--family", default="uniform-random")
    p_mc.add_argument("--output")
    p_mc.set_defaults(func=cmd_bench_sir_mc)

    p_score = bench_sub.add_parser(
        "score", help="score externally produced source estimates")
    p_score.add_argument("--truth", required=True, help="true sources matrix")
    p_score.add_argument("--estimates", required=True,
                         help="estimated sources matrix")
    p_score.add_argument("--output")
    p_score.set_defaults(func=cmd_bench_score)

    p_grid = bench_sub.add_parser("latdim-grid",
                                  help="dimensionality validation grid")
    p_grid.add_argument("--reps", type=int, default=20)
    p_grid.add_argument("--seed", type=int, default=0)
    p_grid.add_argument("--ratios", default="1,1.5,2")
    p_grid.add_argument("--qps", default="0.1,0.3,0.5")
    p_grid.add_argument("--families", default="gaussian,uniform,gamma")
    p_grid.add_argument("--output")
    p_grid.set_defaults(func=cmd_bench_latdim_grid)

    p_gen = sub.add_parser("gen", help="fixture generators")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    p_g5 = gen_sub.add_parser("synth5")
    p_g5.add_argument("--n", type=int, default=2000)
    p_g5.add_argument("--seed", type=int, default=0)
    p_g5.add_argument("--out", required=True)
    p_g5.set_defaults(func=cmd_gen, kind="synth5")
    p_gm = gen_sub.add_parser("model")
    p_gm.add_argument("--p", type=int, required=True)
    p_gm.add_argument("--q", type=int, required=True)
    p_gm.add_argument("--n", type=int, default=1000)
    p_gm.add_argument("--sigma", type=float, default=0.5)
    p_gm.add_argument("--family", default="gaussian")
    p_gm.add_argument("--seed", type=int, default=0)
    p_gm.add_argument("--out", required=True)
    p_gm.set_defaults(func=cmd_gen, kind="model")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad input or configuration: ConfigError, JSONDecodeError and
        # LinAlgError are ValueErrors; a command checks its input before it
        # creates an output directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
