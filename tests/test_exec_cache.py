"""Cache-key and cache-robustness properties of ``repro.exec``.

The cache key must be a *pure* function of the computation: invariant
to incidental representation (dict insertion order, pickling round
trips), and distinct under any perturbation that changes the result
(seed, quantum, policy configuration, code salt).  The on-disk cache
must treat every form of corruption as a miss, never a crash.
"""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines import AqlPolicy, XenCredit
from repro.exec import Cell, ResultCache, canonical, fingerprint
from repro.exec.hashing import code_salt
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import SCENARIOS
from repro.hardware.specs import i7_3770

# -- key construction --------------------------------------------------

_primitives = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
_params = st.dictionaries(
    st.text(min_size=1, max_size=8), _primitives, max_size=6
)


def _cell_fn(**kwargs):  # a stand-in sweep cell; never actually run
    return kwargs


class TestKeyProperties:
    @given(_params)
    def test_key_invariant_to_dict_ordering(self, params):
        reordered = dict(reversed(list(params.items())))
        a = Cell(_cell_fn, params).cache_key("salt")
        b = Cell(_cell_fn, reordered).cache_key("salt")
        assert a == b

    @given(_params)
    def test_key_survives_pickle_round_trip(self, params):
        thawed = pickle.loads(pickle.dumps(params))
        a = Cell(_cell_fn, params).cache_key("salt")
        b = Cell(_cell_fn, thawed).cache_key("salt")
        assert a == b

    @given(_params, st.text(min_size=1, max_size=8), _primitives)
    def test_key_distinct_when_param_added_or_changed(
        self, params, key, value
    ):
        changed = dict(params)
        changed[key] = value
        base = Cell(_cell_fn, params).cache_key("salt")
        other = Cell(_cell_fn, changed).cache_key("salt")
        if canonical(changed) == canonical(params):
            assert base == other
        else:
            assert base != other

    @pytest.mark.parametrize(
        "perturbation",
        [
            dict(seed=1),
            dict(quantum_ms=60),
            dict(policy=XenCredit()),
            dict(policy=AqlPolicy(window=8)),
            dict(policy=AqlPolicy(uniform_quantum_ns=1_000_000)),
        ],
    )
    def test_key_distinct_across_perturbations(self, perturbation):
        base_kwargs = dict(
            scenario=SCENARIOS["S1"], policy=AqlPolicy(), seed=0,
            quantum_ms=30, spec=i7_3770(),
        )
        base = Cell(_cell_fn, base_kwargs).cache_key("salt")
        perturbed = Cell(
            _cell_fn, {**base_kwargs, **perturbation}
        ).cache_key("salt")
        assert base != perturbed

    def test_key_depends_on_function_and_salt(self):
        def other_fn(**kwargs):
            return kwargs

        params = {"seed": 0}
        assert (
            Cell(_cell_fn, params).cache_key("salt")
            != Cell(other_fn, params).cache_key("salt")
        )
        assert (
            Cell(_cell_fn, params).cache_key("salt-a")
            != Cell(_cell_fn, params).cache_key("salt-b")
        )

    def test_policy_state_feeds_the_key(self):
        # two fresh AqlPolicy objects with equal config hash equal;
        # any config difference separates them
        assert fingerprint(AqlPolicy()) == fingerprint(AqlPolicy())
        assert fingerprint(AqlPolicy()) != fingerprint(AqlPolicy(window=8))

    def test_unknown_objects_rejected_loudly(self):
        class Opaque:
            __slots__ = ("x",)

        with pytest.raises(TypeError):
            fingerprint({"bad": Opaque()})

    def test_code_salt_stable_within_process(self):
        assert code_salt() == code_salt()


# -- on-disk robustness ------------------------------------------------


class TestResultCache:
    def test_round_trip_is_byte_identical(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        value = {"metric": 1.25, "series": [1, 2, 3]}
        payload = cache.put("ab" * 32, value)
        entry = cache.get("ab" * 32)
        assert entry.hit
        assert entry.value == value
        assert entry.payload == payload
        assert pickle.loads(entry.payload) == value

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert not cache.get("cd" * 32).hit
        assert cache.stats.misses == 1
        assert cache.stats.invalidations == 0

    @pytest.mark.parametrize(
        "corruptor",
        [
            lambda raw: raw[: len(raw) // 2],  # truncated
            lambda raw: b"",  # emptied
            lambda raw: b"junk" + raw,  # bad magic
            lambda raw: raw[:-1] + bytes([raw[-1] ^ 0xFF]),  # bit flip
            lambda raw: raw[:44] + b"\x00" * (len(raw) - 44),  # body wiped
        ],
    )
    def test_corrupted_entry_is_invalidated_not_fatal(
        self, tmp_path, corruptor
    ):
        cache = ResultCache(root=tmp_path)
        key = "ef" * 32
        cache.put(key, [1.0, 2.0])
        path = cache.path_for(key)
        path.write_bytes(corruptor(path.read_bytes()))
        entry = cache.get(key)
        assert not entry.hit
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1
        # the bad file is discarded so the rewrite starts clean
        assert not path.exists()

    def test_unpicklable_payload_with_valid_checksum_is_a_miss(
        self, tmp_path
    ):
        import hashlib

        cache = ResultCache(root=tmp_path)
        key = "0a" * 32
        bogus = b"not a pickle at all"
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            b"REPROCACHE1\n" + hashlib.sha256(bogus).digest() + bogus
        )
        assert not cache.get(key).hit
        assert cache.stats.invalidations == 1

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" * 32, i)
        assert cache.clear() == 3
        assert not cache.get("00" * 32).hit

    def test_two_caches_on_one_root_share_a_shard(self, tmp_path):
        import os

        from repro.exec import cache as cache_module

        first = ResultCache(root=tmp_path)
        second = ResultCache(root=tmp_path)
        # temps stranded by an earlier process with this pid sit on the
        # next names the counter hands out; puts must step past them
        (tmp_path / "aa").mkdir()
        upcoming = next(cache_module._TMP_SEQ)
        stale = [
            tmp_path / "aa" / f".tmp-{os.getpid()}-{n}.pkl"
            for n in range(upcoming + 1, upcoming + 4)
        ]
        for path in stale:
            path.write_bytes(b"stale")
        # every key lands in shard "aa": 50 puts from each instance
        keys = [f"aa{i:062x}" for i in range(100)]
        for i, key in enumerate(keys):
            (first if i % 2 else second).put(key, {"i": i})
        assert first.stats.stores == second.stats.stores == 50
        assert sorted(tmp_path.rglob(".tmp-*")) == sorted(stale)
        assert all(path.read_bytes() == b"stale" for path in stale)
        assert first.sweep_temps() == len(stale)
        reader = ResultCache(root=tmp_path)
        for i, key in enumerate(keys):
            entry = reader.get(key)
            assert entry.hit and entry.value == {"i": i}

    def test_removed_shard_is_recreated(self, tmp_path):
        import shutil

        cache = ResultCache(root=tmp_path)
        cache.put("bb" + "0" * 62, 1)
        shutil.rmtree(tmp_path / "bb")
        cache.put("bb" + "1" * 62, 2)
        entry = cache.get("bb" + "1" * 62)
        assert entry.hit and entry.value == 2
        assert not cache.get("bb" + "0" * 62).hit

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import os

        real_fdopen = os.fdopen

        class FailingHandle:
            def __init__(self, fd, mode):
                self._handle = real_fdopen(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()
                return False

            def write(self, data):
                raise OSError("disk full")

        cache = ResultCache(root=tmp_path)
        cache.put("cc" + "0" * 62, "kept")
        monkeypatch.setattr(os, "fdopen", FailingHandle)
        with pytest.raises(OSError, match="disk full"):
            cache.put("cc" + "1" * 62, "lost")
        monkeypatch.undo()
        assert not list(tmp_path.rglob(".tmp-*"))
        assert cache.stats.stores == 1
        assert not cache.get("cc" + "1" * 62).hit
        entry = cache.get("cc" + "0" * 62)
        assert entry.hit and entry.value == "kept"

    def test_scenario_run_payload_round_trips(self, tmp_path):
        from repro.experiments.scenarios import AppPlacement, Scenario
        from repro.sim.units import MS

        tiny = Scenario(
            "tiny-io",
            (AppPlacement("specweb2009", 2), AppPlacement("bzip2", 2)),
            pcpus=2,
        )
        run = run_scenario(
            tiny, XenCredit(),
            warmup_ns=50 * MS, measure_ns=150 * MS, seed=0,
        )
        cache = ResultCache(root=tmp_path)
        cache.put("11" * 32, run)
        replay = cache.get("11" * 32).value
        assert replay.by_placement == run.by_placement
        assert replay.results == run.results
        assert replay.pool_layout == run.pool_layout
