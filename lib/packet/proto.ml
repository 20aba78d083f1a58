let ethertype_ipv4 = 0x0800L
let ethertype_arp = 0x0806L
let ethertype_ipv6 = 0x86DDL
let ethertype_vlan = 0x8100L
let ethertype_mpls = 0x8847L

let ipproto_icmp = 1L
let ipproto_tcp = 6L
let ipproto_udp = 17L
