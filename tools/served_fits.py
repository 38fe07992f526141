#!/usr/bin/env python
"""Served J48 fits per case-study operation, with one client and two.

An operation is the ledger's: one first call and one repeat of the §5
composition.  The script runs ``ledger.workloads.CaseStudy`` in this
process with every ``J48.fit`` the J48 service makes counted, then
drives the ledger's closed loop with one client and with two::

    python tools/served_fits.py [--seed 7] [--seconds 8]

It prints fits per operation for both phases (and, for the solo phase,
per first call and per repeat).  The §4.5 harness keeps the models an
instance fitted, so a repeat should not refit — with one client or two.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="measured seconds per phase")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(REPO / "src"), str(REPO)]

    from ledger.measure import LoopStats, closed_loop
    from ledger.workloads import WORKLOADS
    from repro.services import j48_service

    fits, lock = [0], threading.Lock()

    class Counted(j48_service.J48):
        def fit(self, dataset):
            with lock:
                fits[0] += 1
            return super().fit(dataset)

    j48_service.J48 = Counted  # the service's own name for the class
    workload = WORKLOADS["case_study"](args.seed)
    workload.start()
    clients = [workload.client()]
    try:
        loop = dict(make_input=workload.make_input, check=workload.check,
                    indices=itertools.count())
        closed_loop(clients[0], seconds=3.5, **loop)  # warm-up

        split = {"first": 0, "repeat": 0}
        plain = clients[0].first

        def counted(path):
            def call(item):
                before = fits[0]
                answer = plain(item)
                split[path] += fits[0] - before
                return answer
            return call

        clients[0].first, clients[0].repeat = counted("first"), \
            counted("repeat")
        solo = closed_loop(clients[0], seconds=args.seconds, **loop)
        clients[0].first = clients[0].repeat = plain
        ops = len(solo.first_s)
        print(f"solo: {ops} operations, "
              f"{sum(split.values()) / ops:.3f} fits/operation "
              f"({split['first'] / ops:.3f} per first call, "
              f"{split['repeat'] / ops:.3f} per repeat), "
              f"{solo.failed} failed")

        clients.append(workload.client())
        before = fits[0]
        pair = [LoopStats(), LoopStats()]
        threads = [threading.Thread(
            target=closed_loop, args=(client,),
            kwargs=dict(seconds=args.seconds, stats=stats, **loop))
            for client, stats in zip(clients, pair)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ops = sum(len(stats.first_s) for stats in pair)
        print(f"two clients: {ops} operations, "
              f"{(fits[0] - before) / ops:.3f} fits/operation, "
              f"{sum(stats.failed for stats in pair)} failed")
    finally:
        for client in clients:
            client.close()
        workload.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
