"""Start the pyrtos-sc gateway for the ``serve`` workload.

    python3 -m perfbench.serve_launcher --cache DIR --port-file FILE
                                        --rss-file FILE [--spans FILE]

Runs ``repro.serve.Gateway`` exactly as ``pyrtos-sc serve`` does, at its
defaults, except that it listens on an ephemeral port (written to
``--port-file`` once bound) and caches under ``--cache``.  After SIGTERM
has drained the server it writes its peak resident memory in MB to
``--rss-file``.  With ``--spans`` the layer spans are installed before the
first request and written to that file at the same point.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cache", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--rss-file", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from repro.serve import Gateway

    tracer = None
    if args.spans:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    gateway = Gateway(port=0, cache=args.cache)
    gateway.start()
    partial = args.port_file + ".partial"
    with open(partial, "w") as handle:
        handle.write(str(gateway.port))
    os.replace(partial, args.port_file)
    gateway.install_signal_handlers()
    gateway.serve_forever()
    clean = gateway.drain()
    with open(args.rss_file, "w") as handle:  # Linux reports KiB
        handle.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0))
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
