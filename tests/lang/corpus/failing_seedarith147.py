def f(packet, msg, _global):
    v1 = msg.counter + 1
    v0 = (msg.limit * (-4611686018427387904)) >= (-v1)
    if ((_global.knob - v1) * (9223372036854775807 + 4611686018427387904)) == (_global.knob << 4):
        _global.knob = ((9223372036854775807 - (-4611686018427387903)) + (-1)) < _global.knob
    else:
        packet.priority = (((4294967297 * _global.knob) - (4294967297 * (-4611686018427387903))) - (((-4611686018427387903) - 4611686018427387904) * (-9223372036854775807)))
        if (-(v0 - 3)) > ((packet.size - v1) + (4611686018427387904 - (-9223372036854775808))):
            packet.queue_id = (((v1 - msg.limit) + msg.counter) - ((4611686018427387904 >> ((packet.size - msg.limit) % 64)) << ((msg.limit >> ((packet.size << 0) % 64)) % 64)))
            packet.priority = (-(_global.knob + _global.knob)) == ((3 * (-9223372036854775808)) >> 31)
        v1 = ((v0 << 35) - (packet.size - msg.counter)) >= ((v1 << (msg.counter - msg.counter + 9223372036854775807 + 9223372036854775807 + 2)) << 46)
