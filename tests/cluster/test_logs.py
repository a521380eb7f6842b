"""Append-only logs: a deep copy copies the container, not the entries."""

import copy
import pickle

import numpy as np

from repro.cluster.logs import Log, LogDeque, LogDict


def _row(*values):
    row = np.array(values, dtype=np.float64)
    row.setflags(write=False)
    return row


class TestDeepCopy:
    def test_a_log_copy_is_a_new_log_of_the_same_entries(self):
        log = Log([_row(1, 2, 3), _row(4, 5, 6)])
        twin = copy.deepcopy(log)
        assert type(twin) is Log and twin is not log
        assert all(a is b for a, b in zip(twin, log)) and len(twin) == 2
        twin.append(_row(7, 8, 9))
        log.clear()
        assert len(twin) == 3 and not log

    def test_a_log_dict_copy_shares_its_values(self):
        outcomes = LogDict({3: (4, 5, False), 9: (12, 10, True)})
        twin = copy.deepcopy(outcomes)
        assert type(twin) is LogDict and twin is not outcomes
        assert all(twin[k] is outcomes[k] for k in outcomes)
        twin[11] = (1, 1, False)
        assert 11 not in outcomes

    def test_a_log_deque_copy_keeps_its_window(self):
        window = LogDeque([0.1, -0.2, 0.3], maxlen=3)
        twin = copy.deepcopy(window)
        assert type(twin) is LogDeque and twin.maxlen == 3 and twin is not window
        twin.append(0.4)
        assert list(twin) == [-0.2, 0.3, 0.4] and list(window) == [0.1, -0.2, 0.3]

    def test_one_log_reached_twice_is_copied_once(self):
        log = Log([_row(1, 1, 1)])
        a, b = copy.deepcopy([log, log])
        assert a is b and a is not log

    def test_a_snapshot_of_an_owner_keeps_its_other_fields_deep(self):
        """Only the log is shallow: the rest of its owner copies as before."""
        owner = {"history": Log([_row(1, 2, 3)]), "state": [np.zeros(3)]}
        twin = copy.deepcopy(owner)
        assert twin["history"][0] is owner["history"][0]
        assert twin["state"][0] is not owner["state"][0]


class TestStillAListAndADict:
    def test_list_and_dict_behaviour(self):
        log = Log()
        log.extend([1.0, 2.0])
        log.append(3.0)
        assert log == [1.0, 2.0, 3.0] and log[-2:] == [2.0, 3.0]
        assert np.asarray(Log([_row(1, 2, 3)] * 2)).shape == (2, 3)
        outcomes = LogDict()
        outcomes[1] = (1, 2, False)
        assert outcomes.get(1) == (1, 2, False) and outcomes == {1: (1, 2, False)}

    def test_pickle_round_trip(self):
        log, outcomes = Log([1.0, 2.5]), LogDict({1: (2, 3, True)})
        window = LogDeque([1.0, 2.0], maxlen=2)
        back_log, back_outcomes, back_window = pickle.loads(
            pickle.dumps((log, outcomes, window))
        )
        assert type(back_log) is Log and back_log == log
        assert type(back_outcomes) is LogDict and back_outcomes == outcomes
        assert type(back_window) is LogDeque and back_window.maxlen == 2
        assert list(back_window) == [1.0, 2.0]
