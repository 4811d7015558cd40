"""Event-queue simulator tests: delivery order, drops, loss, determinism.

Each result carries the x copy its worker picked up, so each collected
message reveals exactly which master vector the worker computed on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apadmm import DelayModel, LinkModel, StarNetwork
from apadmm.simnet import _UniformStream


def make_net(num_workers=1, down=None, up=None, compute=None, seed=0):
    zero = LinkModel(DelayModel.constant(0.0))
    idle = DelayModel.constant(0.0)
    downs = down if down is not None else [zero] * num_workers
    ups = up if up is not None else [zero] * num_workers
    computes = compute if compute is not None else [idle] * num_workers
    return StarNetwork(num_workers, downs, ups, computes, seed=seed)


def test_zero_delay_round_trip():
    net = make_net(num_workers=2)
    got = net.run_window(np.array([1.0, 2.0]), copy_index=2)
    assert sorted(got) == [0, 1]
    for k in (0, 1):
        msg = got[k]
        assert msg.worker == k
        assert msg.copy_index == 2
        np.testing.assert_array_equal(msg.payload, [1.0, 2.0])
        assert msg.arrived_at == 0.0


def test_determinism_identical_networks():
    def build():
        down = [LinkModel(DelayModel.uniform(0.0, 2.0), loss=0.3)] * 3
        up = [LinkModel(DelayModel.uniform(0.0, 1.5), loss=0.2)] * 3
        compute = [DelayModel.uniform(0.0, 2.5)] * 3
        return make_net(3, down, up, compute, seed=42)

    a, b = build(), build()
    log_a, log_b = [], []
    for t in range(12):
        x = np.array([float(t)])
        log_a.append(sorted((k, m.copy_index, m.arrived_at)
                            for k, m in a.run_window(x, t).items()))
        log_b.append(sorted((k, m.copy_index, m.arrived_at)
                            for k, m in b.run_window(x, t).items()))
    assert log_a == log_b
    assert (a.lost_down, a.lost_up) == (b.lost_down, b.lost_up)
    assert a.dropped_busy == b.dropped_busy


def test_busy_worker_drops_arrivals():
    # compute takes 2.5 windows, so broadcasts at t=1 and t=2 find the
    # worker busy and their copies are dropped
    compute = [DelayModel.constant(2.5)]
    net = make_net(1, compute=compute)
    assert net.run_window(np.array([0.0]), 1) == {}
    assert net.run_window(np.array([1.0]), 2) == {}
    # compute on copy 1 completes at t=2.5, inside the third window
    got = net.run_window(np.array([2.0]), 3)
    assert got[0].copy_index == 1
    assert net.dropped_busy[0] == 2
    # copy 4 finds the worker idle and starts a fresh 2.5-unit compute
    assert net.run_window(np.array([3.0]), 4) == {}
    assert net.dropped_busy[0] == 2


def test_same_instant_batch_prefers_newest_copy():
    # both copies arrive at t=1; the pickup runs after the batch and the
    # higher copy index wins, the other counts as stale
    down = [LinkModel(DelayModel.empirical([1.0, 1.0]))]
    net = make_net(1, down=down)
    net.broadcast(np.array([10.0]), 1)
    net.broadcast(np.array([20.0]), 2)
    net.advance(2.0)
    got = net.collect()
    assert got[0].copy_index == 2
    np.testing.assert_array_equal(got[0].payload, [20.0])
    assert net.dropped_stale[0] == 1


def test_fifo_clamp_holds_back_fast_copy():
    """Without reordering, a fast second send queues behind the first."""
    down = [LinkModel(DelayModel.empirical([5.0, 1.0]))]
    net = make_net(1, down=down)
    net.broadcast(np.array([1.0]), 1)   # delivery at 5
    net.advance(1.0)
    net.broadcast(np.array([2.0]), 2)   # raw 1+1=2, clamped to 5
    net.advance(5.0)                    # processes everything before 6
    got = net.collect()
    assert got[0].copy_index == 2       # same-instant batch, newest wins
    assert net.dropped_stale[0] == 1


def test_reordering_allows_overtaking():
    down = [LinkModel(DelayModel.empirical([5.0, 1.0]), allow_reordering=True)]
    net = make_net(1, down=down)
    net.broadcast(np.array([1.0]), 1)   # delivery at 5
    net.advance(1.0)
    net.broadcast(np.array([2.0]), 2)   # delivery at 2: overtakes copy 1
    net.advance(5.0)
    # copy 2 was computed and sent first; the late copy 1 then was too
    assert [m.copy_index for m in net._inbox] == [2, 1]
    got = net.collect()
    assert got[0].copy_index == 2
    np.testing.assert_array_equal(got[0].payload, [2.0])


def test_collect_keeps_earliest_sent_result():
    # copy 1 is sent at 0 and lands at 0.8; copy 2 is sent at 0.1 and,
    # on a reordering uplink, lands first at 0.1: both arrive in one window
    down = [LinkModel(DelayModel.empirical([0.0, 0.1]))]
    up = [LinkModel(DelayModel.empirical([0.8, 0.0]), allow_reordering=True)]
    net = make_net(1, down=down, up=up)
    net.broadcast(np.array([1.0]), 1)
    net.broadcast(np.array([2.0]), 2)
    net.advance(1.0)
    assert [(m.copy_index, m.arrived_at) for m in net._inbox] == [(1, 0.8), (2, 0.1)]
    got = net.collect()
    assert got[0].copy_index == 1
    # copy 2's result was discarded, not kept for the next window
    net.advance(1.0)
    assert net.collect() == {}


def test_total_uplink_loss_starves_the_master():
    up = [LinkModel(DelayModel.constant(0.0), loss=1.0)]
    net = make_net(1, up=up)
    for t in range(5):
        assert net.run_window(np.array([float(t)]), t + 1) == {}
    assert net.lost_up[0] == 5


def test_total_downlink_loss_counts_every_send():
    down = [LinkModel(DelayModel.constant(0.0), loss=1.0)] * 2
    net = make_net(2, down=down)
    for t in range(4):
        assert net.run_window(np.zeros(1), t + 1) == {}
    assert net.lost_down == [4, 4]
    assert net.has_loss


def test_lost_send_consumes_no_delay_draw():
    # loss is decided before the delay is drawn, so after a lost send the
    # empirical cursor still points at the first value; at seed 8 the
    # first loss draw loses and the second keeps
    first, second = np.random.default_rng(8).random(2)
    assert first < 0.5 <= second
    down = [LinkModel(DelayModel.empirical([3.0, 0.0]), loss=0.5)]
    net = make_net(1, down=down, seed=8)
    net.broadcast(np.zeros(1), 1)
    assert net.lost_down[0] == 1
    net.broadcast(np.zeros(1), 2)
    net.advance(4.0)
    got = net.collect()
    # delivered at t=3: the 3.0 entry was still unconsumed
    assert got[0].arrived_at == 3.0
    assert got[0].copy_index == 2
    assert net.lost_down[0] == 1


@pytest.mark.parametrize("link,delay", [("down", 1.0), ("up", 1.0), ("up", 1.5)])
def test_advance_stops_strictly_before_boundary(link, delay):
    # a copy or a result landing exactly on the boundary waits for the
    # next window, and a result still in flight stays for a later collect
    net = make_net(1, **{link: [LinkModel(DelayModel.constant(delay))]})
    net.broadcast(np.zeros(1), 1)
    net.advance(1.0)
    assert net.collect() == {}
    net.advance(1.0)                  # now it lands inside [1, 2)
    got = net.collect()
    assert got[0].copy_index == 1
    assert got[0].arrived_at == delay
    assert net.now == 2.0


def test_sample_round_trips_sums_three_draws():
    down = [LinkModel(DelayModel.constant(0.5))]
    up = [LinkModel(DelayModel.constant(0.25))]
    compute = [DelayModel.constant(1.0)]
    net = make_net(1, down=down, up=up, compute=compute)
    assert net.sample_round_trips() == [1.75]
    # direct sampling schedules nothing
    assert net._heap == []
    assert net.now == 0.0


def test_empirical_delays_cycle_deterministically():
    model = DelayModel.empirical([1.0, 2.0, 3.0])
    rng = np.random.default_rng(0)
    draw = model.sampler(rng.random)
    assert [draw() for _ in range(7)] == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]


def test_a_shared_model_gives_each_slot_its_own_cursor():
    shared = DelayModel.empirical([5.0, 0.0])
    link = LinkModel(shared)
    net_a = make_net(2, down=[link, link])
    net_b = make_net(1, down=[link], compute=[shared])
    for net in (net_a, net_b):
        net.broadcast(np.zeros(1), 1)
        net.advance(11.0)
    # each worker's downlink, in either network, and net_b's compute
    # consumed their own first entry, not a shared cursor
    assert {k: m.arrived_at for k, m in net_a.collect().items()} == {0: 5.0, 1: 5.0}
    assert net_b.collect()[0].arrived_at == 10.0


def test_changing_a_model_after_construction_changes_no_network():
    link = LinkModel(DelayModel.constant(2.0))
    compute = DelayModel.constant(0.5)
    net = make_net(1, down=[link], compute=[compute])
    link.delay, link.loss, link.allow_reordering = DelayModel.constant(0.0), 1.0, True
    compute.value = 9.0
    net.broadcast(np.zeros(1), 1)
    net.advance(3.0)
    assert net.collect()[0].arrived_at == 2.5
    assert net.lost_down == [0]
    assert not net.has_loss


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_net(2, down=[LinkModel(DelayModel.constant(0.0))])  # one entry
    with pytest.raises(ValueError):
        DelayModel.uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        DelayModel.constant(-1.0)
    with pytest.raises(ValueError):
        LinkModel(DelayModel.constant(0.0), loss=1.5)
    with pytest.raises(ValueError,
                       match=r"^allow_reordering must be true or false, not 'no'$"):
        LinkModel(allow_reordering="no")


@pytest.mark.parametrize("num_workers,seed,match", [
    (2, -1, r"seed must be an integer of at least 0, not -1"),
    (2, [1, -2], r"seed\[1\] must be an integer of at least 0, not -2"),
    (2, [], r"seed must be an integer of at least 0, not \[\]"),
    (0, 0, r"num_workers must be an integer of at least 1, not 0"),
    (2.0, 0, r"num_workers must be an integer of at least 1, not 2\.0"),
    (True, 0, r"num_workers must be an integer of at least 1, not True"),
], ids=["seed_negative", "seed_list_negative", "seed_list_empty",
        "workers_zero", "workers_float", "workers_bool"])
def test_network_inputs_fail_by_name(num_workers, seed, match):
    zero = LinkModel(DelayModel.constant(0.0))
    idle = DelayModel.constant(0.0)
    with pytest.raises(ValueError, match="^%s$" % match):
        StarNetwork(num_workers, [zero] * 2, [zero] * 2, [idle] * 2, seed=seed)


def test_causality_copy_index_not_from_future():
    down = [LinkModel(DelayModel.uniform(0.0, 3.0))] * 2
    compute = [DelayModel.uniform(0.0, 2.0)] * 2
    net = make_net(2, down=down, compute=compute, seed=3)
    for t in range(1, 15):
        got = net.run_window(np.array([float(t)]), t)
        for msg in got.values():
            assert msg.copy_index <= t
            assert msg.arrived_at <= net.now


DELAY_HI = st.floats(0.0, 3.0)


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 3), DELAY_HI, DELAY_HI, DELAY_HI, st.floats(0.0, 0.5),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_messages_are_causal_and_fifo_without_reordering(
        workers, down_hi, compute_hi, up_hi, loss, reorder, seed):
    down = [LinkModel(DelayModel.uniform(0.0, down_hi), loss=loss,
                      allow_reordering=reorder)] * workers
    up = [LinkModel(DelayModel.uniform(0.0, up_hi), loss=loss,
                    allow_reordering=reorder)] * workers
    compute = [DelayModel.uniform(0.0, compute_hi)] * workers
    net = make_net(workers, down=down, up=up, compute=compute, seed=seed)
    arrivals = {k: [] for k in range(workers)}
    for t in range(1, 25):
        net.broadcast(np.array([float(t)]), t)
        net.advance()
        # the inbox holds the uncollected results in send order; these landed
        landed = [msg for msg in net._inbox if msg.arrived_at < net.now]
        for msg in landed:
            assert msg.copy_index <= t
            # copy t went out at t - 1, so nothing lands before then
            assert msg.arrived_at >= msg.copy_index - 1
            np.testing.assert_array_equal(msg.payload, [float(msg.copy_index)])
            arrivals[msg.worker].append(msg)
        got = net.collect()
        for k, msg in got.items():
            assert msg.copy_index <= t
            # nothing is collected before it lands, and everything that
            # landed is collected in the window it landed in
            assert net.now - 1 <= msg.arrived_at < net.now
            # the inbox is in send order: the earliest-sent arrival wins
            assert msg is next(m for m in landed if m.worker == k)
        assert {msg.worker for msg in landed} == set(got)
        # what collect leaves is still in flight
        assert all(msg.arrived_at >= net.now for msg in net._inbox)
    if not reorder:
        # each worker's arrivals, in inbox positions (send order), land in
        # that order and carry ever newer copies
        for msgs in arrivals.values():
            for a, b in zip(msgs, msgs[1:]):
                assert a.arrived_at <= b.arrived_at
                assert a.copy_index < b.copy_index


# -- the buffered uniform stream ----------------------------------------------
# Reference draws come from numpy's scalar Generator.uniform, which computes
# lo + (hi - lo) * u in C. Bounds with inexact products make a platform whose
# C code fuses that into one multiply-add give other bits, and fail here.

@pytest.mark.parametrize("seed", [0, [7, 29]])
def test_buffered_stream_equals_scalar_generator_draws(seed):
    stream = _UniformStream(seed)
    ref = np.random.default_rng(seed)
    delay = DelayModel.uniform(0.1, 3.3).sampler(stream)
    for i in range(3 * _UniformStream.BLOCK + 17):    # three refills
        if i % 3 == 0:                # a loss draw
            got, want = stream(), ref.uniform()
        else:                         # a delay draw
            got, want = delay(), ref.uniform(0.1, 3.3)
        assert type(got) is float
        assert got.hex() == float(want).hex(), i


def test_equal_bounds_draw_nothing():
    stream = _UniformStream(4)
    ref = np.random.default_rng(4)
    flat = DelayModel.uniform(0.7, 0.7)
    for _ in range(10):
        assert flat.sampler(stream)() == 0.7
        assert stream().hex() == float(ref.uniform()).hex()


def test_network_draws_follow_the_scalar_generator_in_call_order():
    # three lossless workers whose links and compute each draw a uniform
    # delay: sample_round_trips consumes down, compute, up per worker
    bounds = [(0.1, 1.3), (0.0, 2.9), (0.35, 0.7)]
    down = [LinkModel(DelayModel.uniform(*b)) for b in bounds]
    up = [LinkModel(DelayModel.uniform(b[0] / 3, b[1] * 1.1)) for b in bounds]
    compute = [DelayModel.uniform(b[0] * 2, b[1] * 2) for b in bounds]
    net = make_net(3, down=down, up=up, compute=compute, seed=[11, 29])
    ref = np.random.default_rng([11, 29])
    for _ in range(100):              # 900 draws, past several refills
        want = []
        for k in range(3):
            d = ref.uniform(down[k].delay.lo, down[k].delay.hi)
            c = ref.uniform(compute[k].lo, compute[k].hi)
            u = ref.uniform(up[k].delay.lo, up[k].delay.hi)
            want.append(d + c + u)
        assert [v.hex() for v in net.sample_round_trips()] == [v.hex() for v in want]


def test_the_solver_draws_the_round_trips_sample_round_trips_returns():
    # run() takes the Python max of the list of floats sample_round_trips
    # returns; twin networks draw the same values, in the same order, to the bit
    down = [LinkModel(DelayModel.uniform(0.1, 1.3))] * 4
    compute = [DelayModel.uniform(0.0, 2.0), DelayModel.constant(0.5),
               DelayModel.empirical([1.0, 0.25]), DelayModel.uniform(1.0, 1.0)]
    nets = [make_net(4, down=down, compute=compute, seed=[3, 29]) for _ in range(2)]
    for _ in range(50):
        drawn, twin = (net.sample_round_trips() for net in nets)
        assert len(drawn) == 4 and all(type(v) is float for v in drawn + twin)
        assert [v.hex() for v in drawn] == [v.hex() for v in twin]


def test_lossy_broadcasts_match_a_scalar_draw_replay():
    # loss and delay draws interleave on the downlinks; replaying every
    # draw from the scalar generator predicts each loss and delivery time
    loss, lo, hi = 0.3, 0.2, 0.9
    down = [LinkModel(DelayModel.uniform(lo, hi), loss=loss,
                      allow_reordering=True)] * 2
    net = make_net(2, down=down, seed=5)
    ref = np.random.default_rng(5)
    lost = [0, 0]
    for t in range(1, 400):
        first = net._seq
        net.broadcast(np.zeros(1), t)
        want = []
        for k in range(2):
            if ref.uniform() < loss:
                lost[k] += 1
            else:
                want.append((net.now + ref.uniform(lo, hi), k))
        sent = sorted((e[1], e[0], e[3][0]) for e in net._heap if e[1] >= first)
        assert [(time, k) for _, time, k in sent] == want
        net.advance()
    assert net.lost_down == lost
