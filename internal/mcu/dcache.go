package mcu

// The decoded-frame cache. Reloading a function the fabric evicted
// re-runs the whole window-by-window decompression of its compressed
// bitstream, even though the decoded frame images are bit-for-bit the
// ones produced moments earlier. A slice of local RAM set aside as a
// bounded LRU cache of decoded images turns those repeat decodes into
// plain RAM reads: the configuration module still pushes every frame
// through the port (the fabric must be rewritten), but PhaseDecompress
// disappears from the reload entirely.
//
// Entries are keyed by (function id, record serial). The host driver
// bumps the serial on every install, so a re-installed (re-synthesised)
// function can never revive a stale image.
//
// The cache is modelled, not stored: the images a hit reads back are the
// record's load plan, so the cache keeps only what decides hits and
// costs — keys, byte accounting and LRU order.

import "container/list"

// dcKey identifies a cached configuration: function id in the high
// half, record serial in the low half.
type dcKey uint32

func makeDCKey(fnID, serial uint16) dcKey { return dcKey(fnID)<<16 | dcKey(serial) }

// dcEntry is one cached configuration: the decoded bytes of one
// (function, serial) pair.
type dcEntry struct {
	key   dcKey
	bytes int
}

// decodeCache is a byte-bounded LRU of decoded configurations. Not safe
// for concurrent use; the owning Controller serialises access.
type decodeCache struct {
	capBytes int
	bytes    int
	lru      *list.List // of dcEntry, most recently used first
	entries  map[dcKey]*list.Element
}

// newDecodeCache returns a cache bounded to capBytes of decoded frames.
func newDecodeCache(capBytes int) *decodeCache {
	return &decodeCache{capBytes: capBytes, lru: list.New(), entries: make(map[dcKey]*list.Element)}
}

// get reports whether key is cached, refreshing its recency.
func (d *decodeCache) get(key dcKey) bool {
	e, ok := d.entries[key]
	if ok {
		d.lru.MoveToFront(e)
	}
	return ok
}

// put caches n decoded bytes under key, evicting least-recently-used
// entries until the byte bound holds. A configuration larger than the
// whole cache is not stored.
func (d *decodeCache) put(key dcKey, n int) {
	if old, ok := d.entries[key]; ok {
		d.remove(old)
	}
	if n > d.capBytes {
		return
	}
	for d.bytes+n > d.capBytes {
		d.remove(d.lru.Back())
	}
	d.entries[key] = d.lru.PushFront(dcEntry{key: key, bytes: n})
	d.bytes += n
}

func (d *decodeCache) remove(e *list.Element) {
	ent := d.lru.Remove(e).(dcEntry)
	delete(d.entries, ent.key)
	d.bytes -= ent.bytes
}
