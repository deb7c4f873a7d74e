"""Start ``repro serve`` with every layer wrapped by the benchmark's tracer.

Usage (from the repository root)::

    python3 perfbench/traced_server.py SPANS.json serve --json ...

The arguments after the spans path go to the ``repro`` CLI unchanged.
When the server exits, its spans and each theory's session
``cache_info()`` are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: "list[str]") -> int:
    spans_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import layers
    from perfbench.tracer import Tracer
    from repro.cli import main as cli_main
    from repro.service.registry import TheoryRegistry

    tracer = Tracer()
    layers.install(tracer)
    caches: "dict[str, dict]" = {}
    close_all = TheoryRegistry.close_all

    def recording_close_all(registry) -> None:
        for entry in registry.entries():
            caches[entry.id] = entry.session.cache_info()
        close_all(registry)

    TheoryRegistry.close_all = recording_close_all
    try:
        return cli_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf8") as handle:
            json.dump({"spans": tracer.finished(), "caches": caches}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
