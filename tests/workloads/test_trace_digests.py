"""Pinned digests of generated traces.

The synthetic generators draw every random number from a seeded
:class:`random.Random`; any change to the order or the arithmetic of
those draws changes every trace and with it every downstream result.
These sha256 digests of the operation streams were recorded before the
generator drew its bounded integers through
:func:`repro.common.rng.below` instead of ``randrange``/``randint``,
and pin that the two give byte-identical traces.
"""

import hashlib

import pytest

from repro.workloads import lock_applications, tm_workloads

#: (workload, seed, threads) -> digest, all at scale 0.002.
TM_DIGESTS = {
    ('Barnes', 0, 32): '15450008427c1868',
    ('Barnes', 0, 8): 'bb2dc3250f6cc8ce',
    ('Barnes', 2008, 32): '12a568ae76a9e7cc',
    ('Barnes', 2008, 8): 'e8b28aeae37aa922',
    ('Cholesky', 0, 32): '918631d8c62faa15',
    ('Cholesky', 0, 8): 'edc6d39895267353',
    ('Cholesky', 2008, 32): 'ec1431ab6653239c',
    ('Cholesky', 2008, 8): 'c9051cfcfee479a1',
    ('Delaunay', 0, 32): 'b11658671130e4ba',
    ('Delaunay', 0, 8): '6edfc04760ff4334',
    ('Delaunay', 2008, 32): '15957e527a1baf79',
    ('Delaunay', 2008, 8): '426015b4c9de5165',
    ('Genome', 0, 32): 'a2663ed4225a81f3',
    ('Genome', 0, 8): 'bbc78d27a53c6814',
    ('Genome', 2008, 32): '42d973a0badc612c',
    ('Genome', 2008, 8): '42de97d8e974263b',
    ('Radiosity', 0, 32): '6f9ed8ca223e354f',
    ('Radiosity', 0, 8): '7479003c197da182',
    ('Radiosity', 2008, 32): 'fc6bcd712402f3f9',
    ('Radiosity', 2008, 8): '09140a85edcdab3e',
    ('Raytrace', 0, 32): 'e43c73e55ef9781f',
    ('Raytrace', 0, 8): '3d0174baf4630244',
    ('Raytrace', 2008, 32): 'b67e9a4c836576c1',
    ('Raytrace', 2008, 8): '28599a6a050fcfed',
    ('Vacation-High', 0, 32): '2fcc870b123a0fec',
    ('Vacation-High', 0, 8): '173884dfb518949e',
    ('Vacation-High', 2008, 32): 'c789ee978b189be4',
    ('Vacation-High', 2008, 8): 'd0016228fb7d0693',
    ('Vacation-Low', 0, 32): 'cf60b3231353c658',
    ('Vacation-Low', 0, 8): 'e19c78aabbc7e232',
    ('Vacation-Low', 2008, 32): '6f1939c8123dfd8c',
    ('Vacation-Low', 2008, 8): '5b1152ad5f671517',
}
#: Table 1 lock applications at seed 0.
LOCK_DIGESTS = {
    'AOLServer': '509cc13c9ea92ecc',
    'Apache': '3464e15a2fb5fa9e',
    'BIND': '978f66791438caa9',
    'BerkeleyDB': '0a050e6f64e2fdac',
}


def _digest(trace) -> str:
    h = hashlib.sha256()
    for thread in trace.threads:
        h.update(repr(thread.ops).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name,seed,threads", sorted(TM_DIGESTS))
def test_tm_trace_digest(name, seed, threads):
    trace = tm_workloads()[name].generate(seed=seed, scale=0.002,
                                          threads=threads)
    assert _digest(trace) == TM_DIGESTS[name, seed, threads]


def test_lock_app_digests():
    traces = lock_applications(seed=0)
    assert {name: _digest(t) for name, t in traces.items()} == LOCK_DIGESTS
