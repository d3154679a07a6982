#!/usr/bin/env python3
"""Validate `bench --json` run records.

usage: check_bench.py --scale quick|full [--names a,b,...] RUN.jsonl:JOBS

Each line of a run file is one record {name, wall_s, elapsed_s, sim_ms,
scale, jobs, cores, result}, checked against its experiment's schema and
criteria, the expected --scale and the jobs count after its file name.
--names fixes the experiments and their order.  The quick tables and
records are pinned by test/golden/bench.t, and their jobs-invariance is
judged by the experiments test "suite jobs-invariant".
"""
import argparse
import json
import sys

RECORD_KEYS = {'name', 'wall_s', 'elapsed_s', 'sim_ms', 'scale', 'jobs', 'cores', 'result'}


def keys(obj, want, what):
    assert set(obj) == want, f'{what}: bad keys {sorted(obj)}'


def ordered(*xs):
    return all(a <= b for a, b in zip(xs, xs[1:]))


def check_fig8(r, scale):
    assert r, 'fig8 reported no percentile cells'
    for c in r:
        keys(c, {'label', 'p50_ms', 'p99_ms'}, 'fig8 cell')
        assert 0 < c['p50_ms'] <= c['p99_ms'], c


def check_qdepth(r, scale):
    cells = set()
    for row in r:
        keys(row, {'fs', 'policy', 'depth', 'load', 'rate_ops_s', 'throughput_ops_s', 'n',
                   'mean_ms', 'p50_ms', 'p99_ms', 'p999_ms', 'max_ms', 'base_ops_s',
                   'sat_ops_s'}, 'qdepth row')
        assert row['fs'] in ('ufs', 'lfs', 'vlfs'), row
        assert row['policy'] in ('fifo', 'elevator', 'satf'), row
        assert row['depth'] in (1, 4, 8, 16, 32), row
        assert row['throughput_ops_s'] > 0 and row['sat_ops_s'] > 0, row
        assert 0 < row['p50_ms'] and ordered(row['p50_ms'], row['p99_ms'], row['p999_ms'],
                                             row['max_ms']), row
        cells.add((row['fs'], row['policy'], row['depth']))
    assert len(cells) == 45, f'qdepth: expected 45 cells, got {len(cells)}'


def check_array(r, scale):
    keys(r, {'cells', 'scalability', 'rebuild'}, 'array')
    cells = set()
    for c in r['cells']:
        keys(c, {'rig', 'spindles', 'depth', 'iops', 'n', 'mean_ms', 'p50_ms', 'p99_ms',
                 'max_ms'}, 'array cell')
        assert c['rig'] in ('svld', 'sreg', 'raid10'), c
        assert c['iops'] > 0 and c['n'] > 0, c
        assert 0 < c['p50_ms'] and ordered(c['p50_ms'], c['p99_ms'], c['max_ms']), c
        cells.add((c['rig'], c['spindles'], c['depth']))
    # quick grid: {svld,sreg} x {1,2,4} x {1,4} + raid10 x {2,4} x {1,4}
    if scale == 'quick':
        assert len(cells) == 16, f'array: expected 16 quick cells, got {len(cells)}'
    assert r['scalability']['svld_widest_over_single'] > 1, r['scalability']
    modes = {m['mode']: m for m in r['rebuild']['modes']}
    assert set(modes) == {'healthy', 'throttled', 'blocking'}, sorted(modes)
    assert r['rebuild']['within_budget'] is True, r['rebuild']
    assert modes['throttled']['progress'] > 0, modes['throttled']


def check_array_faults(r, scale):
    keys(r, {'depth', 'modes'}, 'array-faults')
    assert r['depth'] >= 1, r
    modes = {m['mode']: m for m in r['modes']}
    assert set(modes) == {'healthy', 'one-dead', 'rebuild-flaky'}, sorted(modes)
    for m in r['modes']:
        keys(m, {'mode', 'n', 'failed', 'iops', 'mean_ms', 'p50_ms', 'p99_ms', 'max_ms',
                 'rebuilt'}, 'array-faults mode')
        assert m['n'] > 0 and m['failed'] >= 0 and m['iops'] > 0, m
        assert 0 < m['p50_ms'] and ordered(m['p50_ms'], m['p99_ms'], m['max_ms']), m
    # a flaky source under rebuild cannot beat the healthy array
    assert modes['rebuild-flaky']['p99_ms'] >= modes['healthy']['p99_ms'], modes


def check_nvm(r, scale):
    keys(r, {'cells', 'criteria'}, 'nvm')
    rigs = set()
    for c in r['cells']:
        keys(c, {'rig', 'burst', 'destage_util', 'n_sync', 'sync_mean_ms', 'sync_p50_ms',
                 'sync_p99_ms', 'sync_max_ms', 'burst_fit', 'burst_mean_ms',
                 'overload_ops_s'}, 'nvm cell')
        assert c['n_sync'] > 0 and c['overload_ops_s'] > 0, c
        assert ordered(0, c['sync_p50_ms'], c['sync_p99_ms'], c['sync_max_ms']), c
        rigs.add(c['rig'])
    assert rigs == {'vld', 'nvram-lfs', 'nvm-ufs', 'nvm-vld'}, rigs
    cr = r['criteria']
    keys(cr, {'latency_ratio', 'latency_ok', 'overload_ratio', 'overload_ok'}, 'nvm criteria')
    # the staged VLD must absorb small sync writes at least 10x below
    # plain VLD and keep sustained overload within 1.25x
    assert cr['latency_ok'] is True and cr['overload_ok'] is True, cr


CHECKS = {'fig8': check_fig8, 'qdepth': check_qdepth, 'array': check_array,
          'array-faults': check_array_faults, 'nvm': check_nvm}


def load(path, scale, jobs):
    with open(path) as f:
        try:
            recs = [json.loads(l) for l in f.read().split('\n') if l]
        except json.JSONDecodeError as e:
            sys.exit(f'{path}: malformed JSON: {e}')
    assert recs, f'{path}: no records'
    for r in recs:
        keys(r, RECORD_KEYS, f"{path}: record {r.get('name')}")
        assert isinstance(r['wall_s'], float) and r['wall_s'] >= 0, r
        assert isinstance(r['elapsed_s'], float) and r['elapsed_s'] >= 0, r
        # Table 1 is computed from the disk profiles, not simulated, so it
        # alone consumes no simulated time.
        assert isinstance(r['sim_ms'], float), r
        assert r['sim_ms'] == 0.0 if r['name'] == 'table1' else r['sim_ms'] > 0, r
        assert r['scale'] == scale, f"{path}: {r['name']}: scale {r['scale']!r}, expected {scale!r}"
        assert r['jobs'] == jobs, f"{path}: {r['name']}: jobs {r['jobs']!r}, expected {jobs}"
        assert isinstance(r['cores'], int) and r['cores'] >= 1, r
        check = CHECKS.get(r['name'])
        if check:
            check(r['result'], scale)
        else:
            assert r['result'] is None, f"{r['name']}: table-only experiment with a result"
    assert len({r['cores'] for r in recs}) == 1, f'{path}: records disagree on cores'
    return recs


def run_spec(spec):
    path, _, jobs = spec.rpartition(':')
    if not path or not jobs.isdigit():
        raise argparse.ArgumentTypeError(f'{spec!r}: expected RUN.jsonl:JOBS')
    return path, int(jobs)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument('--scale', required=True, choices=('quick', 'full'))
    ap.add_argument('--names')
    ap.add_argument('run', type=run_spec, metavar='RUN.jsonl:JOBS')
    args = ap.parse_args()
    path, jobs = args.run
    recs = load(path, args.scale, jobs)
    names = [r['name'] for r in recs]
    if args.names:
        assert names == args.names.split(','), f'{path}: unexpected experiments {names}'
    for r in recs:
        print(f"{path}: {r['name']}: wall {r['wall_s']:.3f}s, simulated {r['sim_ms']:.0f}ms")
    print('bench records ok')


if __name__ == '__main__':
    main()
