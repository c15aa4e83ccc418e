"""Action functions the benchmark installs besides the library's own.

They live in a real module because ``compile_action`` recovers the
source with ``inspect.getsource``.
"""


def tag(packet):
    """Stateless header rewrite (PARALLEL: writes packet state only).

    A handful of bytecode ops, so the enclave's per-packet envelope —
    not the body — is what ``enclave_tag`` measures.
    """
    if packet.size > 1000:
        packet.priority = 1
    else:
        packet.priority = 5
    packet.path_id = 1 + packet.dst_port % 4
