"""Each hostile client, once, against an in-process server.

The soak runs these plans for 30 s in CI; this suite runs every
:data:`~repro.reliability.chaos.CLIENT_FAULTS` plan once.  Each must end
in a typed reply with the code the protocol documents for its framing
violation, or in a close — and the server must still answer ``ping``.
"""

import pytest

from repro.reliability.campaign import TrialOutcome
from repro.reliability.chaos import CLIENT_FAULTS, ClientFaultPlan
from repro.service import CompressionServer, ServiceClient, ServiceConfig


@pytest.fixture(scope="module")
def server():
    # A short I/O budget so the slow-loris plan trips it within a second.
    srv = CompressionServer(
        ServiceConfig(workers=2, queue_depth=8, io_timeout=0.5, debug_ops=True)
    )
    srv.start()
    yield srv
    if srv.state != "stopped":
        srv.drain()


#: The documented reply code per framing violation; a vanished client
#: gets no reply.
CODES = {"slow_loris": 400, "oversized_frame": 413, "garbage_frame": 400}


@pytest.mark.parametrize("fault", CLIENT_FAULTS)
def test_fault_is_rejected_loudly_and_server_survives(server, fault):
    plan = ClientFaultPlan(fault, seed=0, reply_timeout=5.0)
    observed = plan.run(server.address)
    assert plan.classify(observed) is TrialOutcome.DETECTED, observed
    reply = observed["reply"]
    if reply is not None:
        assert reply["code"] == CODES[fault]
        assert reply["error"]["type"] == "ProtocolError"
    with ServiceClient(server.address, timeout=5.0) as client:
        assert client.ping()["ok"]


@pytest.mark.parametrize(
    "fault, observed",
    [
        ("oversized_frame", {"reply": {"ok": False, "code": 400,
                                       "error": {"type": "ProtocolError"}},
                             "closed": True}),
        ("garbage_frame", {"reply": {"ok": False, "code": 400,
                                     "error": "bad header"}, "closed": True}),
        ("garbage_frame", {"reply": {"ok": True, "code": 0}, "closed": False}),
        ("slow_loris", {"reply": None, "closed": False}),
    ],
)
def test_wrong_or_missing_rejection_is_escaped(fault, observed):
    plan = ClientFaultPlan(fault)
    assert plan.classify(observed) is TrialOutcome.ESCAPED
