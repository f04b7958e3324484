package algos

import "encoding/binary"

// Triple DES (EDE with three independent keys), built on the single-DES
// round machinery in des.go. 3DES is the workload the paper's era
// actually offloaded: ~3× the software cost of DES while a pipelined
// hardware ladder barely notices the extra passes.

var tdesKeys = [3][8]byte{
	{'T', 'D', 'E', 'S', '-', 'K', '1', '!'},
	{'T', 'D', 'E', 'S', '-', 'K', '2', '!'},
	{'T', 'D', 'E', 'S', '-', 'K', '3', '!'},
}

// tdesSubkeys[i] is the schedule of key i; the middle pass decrypts.
var tdesSubkeys = func() (ks [3]desSchedule) {
	for i, key := range tdesKeys {
		ks[i] = desKeySchedule(binary.BigEndian.Uint64(key[:]), i == 1)
	}
	return ks
}()

func tdesEncryptBlock(dst, src []byte) {
	v := desIP(binary.BigEndian.Uint64(src))
	v = desRounds(v, &tdesSubkeys[0]) // E with K1
	v = desRounds(v, &tdesSubkeys[1]) // D with K2
	v = desRounds(v, &tdesSubkeys[2]) // E with K3
	binary.BigEndian.PutUint64(dst, desFP(v))
}

var tdesFn = &Function{
	id:          IDTDES,
	name:        "tdes",
	LUTs:        3600, // three chained 16-stage pipelines
	InBus:       8,
	OutBus:      8,
	BlockBytes:  8,
	outPerBlock: 8,
	hwSetup:     52, // 48-stage pipeline fill
	hwPerBlock:  1,  // fully pipelined: one block per cycle
	swSetup:     400,
	swPerByte:   170, // three DES passes plus gluing
	run: func(out, in []byte) {
		for i := 0; i < len(in); i += 8 {
			tdesEncryptBlock(out[i:], in[i:])
		}
	},
}

// TDES is the 3DES (EDE3) ECB encryption core.
func TDES() *Function { return tdesFn }
