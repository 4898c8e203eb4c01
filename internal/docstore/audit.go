package docstore

// WriteAuditReport is the outcome of a post-run write audit: Lost
// counts acknowledged writes that can no longer be read back (the
// cardinal durability sin), Ghost counts rejected writes that
// resurrected anyway (a write-atomicity violation). The ID slices
// carry up to auditIDCap examples each, so a failing test can name the
// evidence without printing thousands of ids.
type WriteAuditReport struct {
	Acked    int
	Rejected int
	Lost     int
	Ghost    int
	LostIDs  []string
	GhostIDs []string
}

// Clean reports whether the audit found no violations.
func (r WriteAuditReport) Clean() bool { return r.Lost == 0 && r.Ghost == 0 }

// auditIDCap bounds the example ids retained per violation class.
const auditIDCap = 16

// AuditWrites verifies write-acknowledgement accounting over any
// collection, local or remote: every acknowledged id must still resolve,
// and no rejected id may have resurrected. Chaos tests call it after
// dark or restarted shard servers are back and re-admitted, so a miss
// means real loss rather than a transiently dark shard.
func AuditWrites(d Docs, acked, rejected []string) WriteAuditReport {
	rep := WriteAuditReport{Acked: len(acked), Rejected: len(rejected)}
	for _, id := range acked {
		if _, err := d.Get(id); err != nil {
			rep.Lost++
			if len(rep.LostIDs) < auditIDCap {
				rep.LostIDs = append(rep.LostIDs, id)
			}
		}
	}
	for _, id := range rejected {
		if _, err := d.Get(id); err == nil {
			rep.Ghost++
			if len(rep.GhostIDs) < auditIDCap {
				rep.GhostIDs = append(rep.GhostIDs, id)
			}
		}
	}
	return rep
}
