impl FsdVolume {
    /// Violation: a raw write on a configured commit path bypasses the
    /// scheduler's barriers and ordering.
    fn sync_home_all(&mut self) -> Result<()> {
        self.disk.write(self.home_addr, &self.image)?;
        Ok(())
    }
}
