"""Set-up cost of obsdecay in a fresh process.

Run as ``python3 bench/setup_probe.py <src dir> <work dir>``.  Times
``import obsdecay``, then runs :func:`probe` twice, and prints one JSON line
with the import time and the cold and warm probe times.  The benchmark's
``setup_s`` is ``import_s + cold_s - warm_s``: what a fresh process pays
before it runs at warm speed.

The probe calls every layer once on the reference system
``beam_example(1, 1, 23)``.
"""

import json
import os
import sys
import time

PROBE_N = 23


def probe(workdir: str) -> None:
    import numpy as np

    import obsdecay
    from obsdecay import cli

    config = os.path.join(workdir, "probe_config.json")
    with open(config, "w") as handle:
        json.dump({"gamma": 1.0, "generator": {"type": "beam", "theta": 1.0, "sigma": 1.0,
                                               "N": PROBE_N}}, handle)
    if cli.main(["verify", "--config", config, "--out", workdir]) != cli.EXIT_OK:
        raise RuntimeError("set-up probe: verify failed")
    system = obsdecay.beam_example(1.0, 1.0, PROBE_N)
    rep = obsdecay.full_spectrum(system)
    obsdecay.build_basis(system, rep)
    rhs = obsdecay.StateVector(q=np.ones(PROBE_N), p=np.ones(PROBE_N))
    obsdecay.apply_resolvent(system, 0.5 + 3.0j, rhs)
    obsdecay.apply_resolvent(system, 1j * system.omegas[0], rhs)
    obsdecay.axis_scan(system, rep, (3, PROBE_N - 3))
    obsdecay.decay_envelope(system, rep, np.geomspace(1.0, 200.0, 200))
    obsdecay.simulate_error(system, obsdecay.domain_initial_state(system, 0), [0.0, 1e-3])


def main() -> None:
    src, workdir = sys.argv[1:3]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import obsdecay  # noqa: F401

    import_s = time.perf_counter() - start
    times = []
    for _ in range(2):
        start = time.perf_counter()
        probe(workdir)
        times.append(time.perf_counter() - start)
    print(json.dumps({"import_s": import_s, "cold_s": times[0], "warm_s": times[1]}))


if __name__ == "__main__":
    main()
