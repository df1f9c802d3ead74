"""Time albench's set-up in a fresh interpreter.

Set-up is importing albench, loading the workload's pools through
``data.load_csv`` and loading its replay fixtures. Prints the seconds.

    python3 bench/setup_probe.py INPUTS_JSON

INPUTS_JSON is the {pool: DatasetSpec dict, "fixtures": path} map the
generator returned. albench must be importable (PYTHONPATH=src).
"""

import json
import sys
import time


def main() -> None:
    start = time.perf_counter()
    from albench import clients, data

    with open(sys.argv[1], encoding="utf-8") as fh:
        inputs = json.load(fh)
    for name, spec in inputs.items():
        if name == "fixtures":
            clients.load_fixtures(spec)
        else:
            data.load_csv(data.DatasetSpec.from_dict(spec))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
