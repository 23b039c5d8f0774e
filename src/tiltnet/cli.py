"""Command-line entry point.

    tiltnet train     --config run.ini [--seed N]
    tiltnet eval      --config run.ini --checkpoint net.ckpt
    tiltnet sample    --config run.ini --checkpoint net.ckpt \\
                      --layer conv2 --channel 7 [--seed N]
    tiltnet gradcheck [--seed N]
    tiltnet inspect   --checkpoint net.ckpt

``python -m tiltnet.cli <command> ...`` is the same without the script.
Exit codes: 0 success, 2 config error, 3 IO/data/memory error, 4 numeric
failure, 5 failed correctness check. Output lines are field=value pairs so
scripts can scrape them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import checks as checks_mod
from . import hmc as hmc_mod
from . import net as net_mod
from . import tensor
from . import train as train_mod
from .config import RunSpec, parse_config
from .errors import (CheckpointError, ConfigError, DataError, NumericsError,
                     ShapeError)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def cmd_train(spec: RunSpec) -> int:
    _require(spec.layers is not None, "train needs a [network] section")
    _require(spec.data is not None, "train needs a [data] section")
    _require(bool(spec.out_dir), "train needs [run] out_dir")
    train_set = spec.data.train_set(spec.seed)
    eval_set = spec.data.eval_set(spec.seed)
    network = net_mod.build_network(
        net_mod.NetworkConfig(train_set.images.shape[1:], spec.layers, spec.seed))
    out = Path(spec.out_dir)   # run_training refuses a set before it makes out
    train_mod.run_training(network, train_set, spec.train, eval_set=eval_set, out_dir=out,
                           log=train_mod.MetricsLog(out / "train.log", echo=True))
    # evaluated first: weights whose scores overflow never reach final.ckpt
    print(f"final_train_err={train_mod.evaluate(network, train_set):.6f}")
    if eval_set is not None:
        print(f"final_eval_err={train_mod.evaluate(network, eval_set):.6f}")
    final = out / "final.ckpt"
    net_mod.save_checkpoint(network, final)
    print(f"checkpoint={final}")
    return 0


def cmd_eval(spec: RunSpec, checkpoint) -> int:
    _require(spec.data is not None, "eval needs a [data] section")
    network = net_mod.load_checkpoint(checkpoint)
    eval_set = spec.data.eval_set(spec.seed)
    if eval_set is None:
        raise ConfigError("eval needs test_images/test_labels (idx) or eval_n "
                          "(synthetic)")
    err = train_mod.evaluate(network, eval_set)
    print(f"error_rate={err:.6f} n={len(eval_set)}")
    return 0


def cmd_sample(spec: RunSpec, checkpoint, layer: str, channel: int) -> int:
    _require(bool(spec.out_dir), "sample needs [run] out_dir")
    network = net_mod.load_checkpoint(checkpoint)
    channels = network.config.input_shape[0]
    _require(channels in (1, 3), f"sample renders 1- or 3-channel images; the "
                                 f"checkpoint's input has {channels} channels")
    records = hmc_mod.sample_node(network, layer, channel, spec.hmc)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = [f"# tiltnet-sample layer={layer} channel={channel} "
                f"seed={spec.hmc.seed} iterations={spec.hmc.iterations}"]
    for rec in records:
        fname = f"sample_{layer}_c{channel}_iter{rec.iteration:06d}.pgm"
        if rec.image.shape[0] == 3:
            fname = fname[:-4] + ".ppm"
        hmc_mod.render_image(rec.image, out / fname)
        line = (f"iter={rec.iteration} file={fname} potential={rec.potential:.10g} "
                f"kinetic={rec.kinetic:.10g} hamiltonian={rec.hamiltonian:.10g} "
                f"accepted={rec.accepted}")
        manifest.append(line)
        print(line)
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n")
    print(f"samples={out}")
    return 0


def cmd_gradcheck(seed: int) -> int:
    results = checks_mod.all_suites(seed)
    failures = 0
    for r in results:
        status = "ok" if r.ok else "FAIL"
        line = f"check={r.name} value={r.value:.3e} tol={r.tol:.1e} status={status}"
        if r.note:
            line += f" note={r.note!r}"
        print(line)
        failures += 0 if r.ok else 1
    print(f"checks={len(results)} failures={failures}")
    return 5 if failures else 0


def cmd_inspect(checkpoint) -> int:
    network = net_mod.load_checkpoint(checkpoint)
    cfg = network.config
    print(f"input_shape={'x'.join(str(d) for d in cfg.input_shape)}")
    print(f"classes={network.num_outputs}")
    for name, spec_, shape in zip(network.names, network.layers, network.shapes):
        print(f"layer={name} kind={spec_.kind} out={'x'.join(str(d) for d in shape)}")
    for name in sorted(network.params):
        arr = network.params[name]
        print(f"param={name} shape={'x'.join(str(d) for d in arr.shape)} size={arr.size}")
    print(f"total_params={network.param_count()}")
    return 0


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltnet",
        description="Train scoring networks discriminatively or generatively "
                    "and synthesize images from their nodes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **extra):
        p = sub.add_parser(name, **extra)
        p.add_argument("--config", required=True, help="run configuration file")
        if name in ("eval", "sample"):
            p.add_argument("--checkpoint", required=True, help="network checkpoint")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override [run] seed")
        return p

    add("train", help="train a network per the config")
    add("eval", help="classification error of a checkpoint")
    p_sample = add("sample", help="synthesize images from one node")
    p_sample.add_argument("--layer", required=True, help="layer name, e.g. conv2")
    p_sample.add_argument("--channel", required=True, type=int)
    p_check = sub.add_parser("gradcheck", help="run the built-in correctness suites")
    p_check.add_argument("--seed", type=_seed, default=0, help="seed of the random inputs")
    p_inspect = sub.add_parser("inspect", help="describe a checkpoint")
    p_inspect.add_argument("--checkpoint", required=True, help="network checkpoint")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse: --help exits 0, a usage error 2
        return exc.code
    try:
        if args.command == "inspect":
            return cmd_inspect(args.checkpoint)
        if args.command == "gradcheck":
            return cmd_gradcheck(args.seed)
        spec = parse_config(args.config, args.seed)
        if args.command == "train":
            return cmd_train(spec)
        if args.command == "eval":
            return cmd_eval(spec, args.checkpoint)
        if args.command == "sample":
            return cmd_sample(spec, args.checkpoint, args.layer, args.channel)
    except (ConfigError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    tensor._WORKER = tensor._split_engages(pin=True)  # the CLI's one layout; main() sets nothing
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
