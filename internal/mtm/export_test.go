package mtm

// SetExchangeMin sets the fan-out minimum for a test and returns the
// restore.
func SetExchangeMin(n int) (restore func()) {
	old := exchangeMin
	exchangeMin = n
	return func() { exchangeMin = old }
}

// ExchangeMin returns the fan-out minimum.
func ExchangeMin() int { return exchangeMin }
