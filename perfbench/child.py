"""Child processes the benchmark spawns and times.

    python child.py setup SEED CMD=CONFIG ...      import multibeta.cli, validate
                                                   each config, build its field
                                                   and QuadratureSpec, exit
    python child.py trace SPANS -- CLI-ARGS ...    run one CLI invocation
                                                   in-process under the tracer and
                                                   write its spans to SPANS

Both refuse to run a multibeta imported from anywhere but ``./src``.
"""

from __future__ import annotations

import os
import sys


def _import_cli():
    import multibeta
    import multibeta.cli as cli

    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(multibeta.__file__).startswith(src):
        raise SystemExit(f"multibeta imported from {multibeta.__file__}, not from {src}")
    return cli


def setup(seed: int, pairs) -> int:
    cli = _import_cli()
    for pair in pairs:
        command, path = pair.split("=", 1)
        if command not in cli.COMMANDS:
            raise SystemExit(f"unknown subcommand {command!r}")
        cfg = cli.Config(path, {"seed": seed})
        cli.load_field(cfg)
        cli.load_quad(cfg, seed)
    return 0


def trace(spans_path: str, cli_argv) -> int:
    cli = _import_cli()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_argv)
    tracer.save(spans_path)
    return code


def main(argv) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        return setup(int(argv[1]), argv[2:])
    if len(argv) >= 3 and argv[0] == "trace" and argv[2] == "--":
        return trace(argv[1], argv[3:])
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
