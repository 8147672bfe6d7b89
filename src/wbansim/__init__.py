"""Link-level simulator for co-located wireless body area networks.

Models several single-hop star networks worn by different people, each
running TDMA internally but not coordinated with the others, so slots
collide at random. Packet SINR is evaluated per block-fading epoch for a
direct sensor-to-hub transmission and for a cooperative scheme with two
decode-and-forward relays plus opportunistic selection. Outage
probability and level crossing rate summarize the resulting SINR series.
"""

__version__ = "0.1.0"
