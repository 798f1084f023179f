"""The repo's one standing benchmark (see bench/README.md and BENCHMARK.json).

Run it from the repository root::

    python3 bench/run.py --workload eval_mix --seed 1 --seconds 10 --trace 0
    PYTHONPATH=src python -m bench.run            # all four workloads, human table
    PYTHONPATH=src python -m bench.run --quick    # every metric name in < 20 s

Everything here measures the program from outside: it times calls into the
layers' public functions and reads counters the program already exports.
"""
