"""Command-line interface.

The first argument is the run mode:

    spamtomo simulate    --config cfg.json --out results/
    spamtomo analyze     --config cfg.json --data measurements.csv
    spamtomo reconstruct --config cfg.json
    spamtomo full        --seed 7 --scheme n+1 --threshold 3

Flags override the corresponding configuration keys.  The exit status is
0 when no correlated error was found, 2 when one was detected, and 1 on
failure, usage errors included.  The argument parser is built once per
process, when the module is imported, and every :func:`main` call
parses with it.
"""

import argparse
import sys

from .config import config_from_dict, load_config
from .errors import SpamTomoError
from .optics import Scheme
from .runner import EXIT_ERROR, run, write_outputs

MODES = (
    ("simulate", "generate measurement data only"),
    ("analyze", "run the correlated-error test on simulated or loaded data"),
    ("reconstruct", "analyze, then reconstruct states/POVMs when the data are clean"),
    ("full", "simulate, analyze, reconstruct and dump everything"),
)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: argparse's 2 would read as a detection."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser():
    """One parser for every mode: the mode is a positional argument and
    all modes share the same flags."""
    parser = _Parser(
        prog="spamtomo",
        description="Loop SPAM tomography: simulate, detect correlated errors, reconstruct.\n\nmodes:\n"
        + "\n".join(f"  {mode:<12} {help_text}" for mode, help_text in MODES),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("mode", choices=[mode for mode, _ in MODES], help="run mode")
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--data", metavar="PATH", help="measurement CSV to analyze")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, help="random seed override")
    parser.add_argument("--threshold", type=float, help="detection threshold (sigma units)")
    parser.add_argument("--scheme", choices=[s.value for s in Scheme], help="measurement scheme")
    return parser


# argparse asks for the terminal size on every add_argument, so building
# the parser costs more than parsing with it; parsing leaves the parser
# unchanged, so one serves every call.
_PARSER = build_parser()


def _configure(args):
    """The run configuration: the config file (if any) with the mode and
    flags merged over its keys, validated once."""
    overrides = {"mode": args.mode}
    for key, value in (
        ("input_data", args.data),
        ("output_dir", args.out),
        ("seed", args.seed),
        ("threshold", args.threshold),
        ("scheme", args.scheme),
    ):
        if value is not None:
            overrides[key] = value
    if args.config:
        return load_config(args.config, overrides)
    return config_from_dict(overrides)


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        config = _configure(args)
        report = run(config)
        paths = write_outputs(report)
    except (SpamTomoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if report.detection is not None:
        if report.detection.detected:
            top = report.detection.flagged_elements[0]
            print(
                f"correlated SPAM error detected: deviation at element ({top[0]}, {top[1]}) "
                f"with significance {top[2]:.1f} (threshold {report.detection.threshold})"
            )
            if report.detection.candidate_locations:
                pairs = ", ".join(f"(prep {a}, setting {i})" for a, i in report.detection.candidate_locations)
                print(f"candidate locations: {pairs}")
            else:
                print(report.detection.note)
        else:
            print("no correlated SPAM errors detected")
    if report.scores is not None:
        print(
            f"reconstruction: min fidelity {min(report.scores.fidelities):.4f}, "
            f"max relative error {max(report.scores.relative_errors):.4f}, "
            f"loop residual {report.reconstruction.consistency_residual:.2e}"
        )
    print(f"report written to {paths['report']}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
