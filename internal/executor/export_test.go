package executor

// FaultPlan exports the fault fixture to the external matrix test.
var FaultPlan = faultPlan
