package stats

// VirtualNames lists the introspection tables in catalog order.
func VirtualNames() []string {
	return []string{TableStatements, TableSMAs, TableTables, TableActivity, TableAdvisor}
}
