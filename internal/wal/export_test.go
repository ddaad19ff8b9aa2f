package wal

// IsInsert and IsUpdate name the other op kinds without exporting the
// record-type bytes. An insert run is an insert of Count tuples.
func (o Op) IsInsert() bool { return o.Type == recInsert || o.Type == recInsertRun }
func (o Op) IsUpdate() bool { return o.Type == recUpdate }
