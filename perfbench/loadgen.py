"""Load generator of the service_mixed workload, in a process of its own.

    python3 perfbench/loadgen.py --port P --seed S --seconds T --out FILE

Sends ``inputs.service_schedule(seed, seconds)`` to the daemon listening
on ``127.0.0.1:P`` as a closed loop over ``workers()`` connections: each
connection sends the next request of the list as soon as its previous
one has answered, until the list is done.  Running apart from the
daemon's process keeps the sender threads from competing with the
daemon's own threads for the interpreter lock.  Writes
``{"start", "records"}`` to FILE, one record per request sent, with
``time.perf_counter`` times: ``free`` when the connection was ready to
send, ``sent`` and ``done``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
from pathlib import Path

from common import pin_threads, workers
from run import _import_repro


def post(port: int, kind: str, body: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", f"/v1/{kind}", body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    pin_threads()
    _import_repro()
    import inputs

    schedule = inputs.service_schedule(args.seed, args.seconds)
    bodies = [json.dumps(inputs.request_body(r.kind, r.cell))
              for r in schedule]
    records = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    start = time.perf_counter()

    def sender():
        free = start
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            sent = time.perf_counter()
            try:
                status, payload = post(args.port, schedule[index].kind,
                                       bodies[index])
            except (OSError, ValueError) as exc:
                status, payload = 0, {"error": repr(exc)}
            done = time.perf_counter()
            records[index] = {
                "index": index, "free": free, "sent": sent, "done": done,
                "status": status, "payload": payload,
            }
            free = done

    threads = [threading.Thread(target=sender) for _ in range(workers())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    args.out.write_text(json.dumps({
        "start": start,
        "records": [r for r in records if r is not None],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
