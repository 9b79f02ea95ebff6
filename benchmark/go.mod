module uagpnm/benchmark

go 1.24

require uagpnm v0.0.0

replace uagpnm => ../
