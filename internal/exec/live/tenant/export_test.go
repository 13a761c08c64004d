package tenant

// FreeRings is how many closed sessions' rings wait on the free list.
func (s *Service) FreeRings() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rings)
}
