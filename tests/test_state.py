import copy
import pickle

import numpy as np
import pytest

from obsdecay.state import StateVector


class TestStateVector:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                     complex(np.nan, 0.0)])
    @pytest.mark.parametrize("block", ["q", "p"])
    def test_nonfinite_entry_rejected(self, bad, block):
        good = np.ones(3, dtype=complex)
        broken = good.copy()
        broken[1] = bad
        blocks = {"q": good, "p": good, block: broken}
        with pytest.raises(ValueError, match="finite"):
            StateVector(**blocks)
        stacked = np.concatenate([blocks["q"], blocks["p"]])
        with pytest.raises(ValueError, match="finite"):
            StateVector.from_array(stacked)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            StateVector(q=np.ones(3), p=np.ones(2))
        with pytest.raises(ValueError, match="equal length"):
            StateVector(q=np.ones((2, 2)), p=np.ones((2, 2)))

    def test_blocks_are_complex_copies(self):
        q, p = np.arange(3.0), -np.arange(3.0)
        state = StateVector(q=q, p=p)
        assert state.q.dtype == state.p.dtype == complex
        q[0] = 7.0
        assert state.q[0] == 0.0
        vec = np.arange(6.0) + 1j
        assert np.array_equal(StateVector.from_array(vec).to_array(), vec)

    @pytest.mark.parametrize("vec", [np.ones(5, dtype=complex), np.ones((2, 4), dtype=complex)])
    def test_from_array_shape_rejected(self, vec):
        with pytest.raises(ValueError, match="even length"):
            StateVector.from_array(vec)

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_from_array_never_aliases_its_input(self, dtype):
        vec = np.arange(6.0).astype(dtype)
        state = StateVector.from_array(vec)
        for block in (state.q, state.p):
            assert not np.shares_memory(block, vec)
        vec[0] = 9.0
        assert state.q[0] == 0.0
        assert not np.shares_memory(state.q, state.to_array())

    def test_copies_and_pickles_own_their_entries(self):
        state = StateVector.from_array(np.arange(6.0) + 1j)
        for twin in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            assert np.array_equal(twin.to_array(), state.to_array())
            assert not np.shares_memory(twin.q, state.q)
