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
